"""corpusmine: domain-focused corpus mining toolkit.

Selects domain-relevant training data from large general corpora, combines
multiple selection criteria, retrieves and filters comparable documents, and
evaluates the resulting corpora.
"""

__version__ = "0.1.0"

from .errors import FormatError, MissingFactorError, ToolkitError  # noqa: F401
