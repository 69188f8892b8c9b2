"""Gradient-leakage workbench for federated quadratic logistic regression.

Simulates synchronized/asynchronized federated training on binary data,
recovers the leaked linear systems an honest-but-curious participant sees,
and reconstructs the victim's binary batch exactly from its Gram matrix.
"""

__version__ = "0.1.0"
