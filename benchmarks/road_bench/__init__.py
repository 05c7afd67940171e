"""road_bench: the full-CA, real-socket benchmark (see README.md)."""
