"""The repository's end-to-end benchmark; run ``python3 perfbench/run.py``."""
