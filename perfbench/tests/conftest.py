import sys
from pathlib import Path

# the benchmark's modules are flat scripts next to run.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
