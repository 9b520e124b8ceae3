import sys
from pathlib import Path

# The benchmark tests run against the checkout's own sources.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
