"""Link-level simulator for secure short-block feedback coding of gradient uploads."""

__version__ = "0.2.1"
