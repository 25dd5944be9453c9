"""``python -m dopfisher ...`` runs the command-line front end."""

from .cli import run

run()
