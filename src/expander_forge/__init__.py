"""Configuration-model random graphs with degree-3 interior and degree-1
boundary vertices: exact sampling and counting, Laplacian/Steklov spectra,
exact Cheeger certificates, first-moment separator bounds, and a certified
expander-family construction.  Each name is imported from its module,
e.g. `from expander_forge.cheeger import cheeger_exact`."""

__version__ = "0.1.0"
