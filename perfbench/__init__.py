"""Wall-clock benchmark of the Unifying Database (see README.md)."""
