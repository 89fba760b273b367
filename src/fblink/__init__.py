"""Link-level simulator for secure short-block feedback coding of gradient uploads."""

__version__ = "0.10.0"
