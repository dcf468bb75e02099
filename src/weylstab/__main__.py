"""Run the command-line front end: ``python -m weylstab verify --n 3``."""

from .cli import run

if __name__ == "__main__":
    run()
