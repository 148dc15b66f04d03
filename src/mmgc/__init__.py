"""Clustering for multimodal attributed graphs.

The pipeline projects each modality into a shared space, denoises the
mixed representation with a low-pass filter acting on both the graph
and the feature-affinity structure, and trains the projections with
cross-modality, neighborhood, and community contrastive objectives.

Importing the package defers two numpy packages that no ``mmgc`` routine
uses, ``numpy.f2py`` and ``numpy.testing``.  scipy's vendored
``array_api_compat`` runs ``from numpy import *`` when ``scipy.sparse``
is imported, and numpy 2 lists its lazily loaded subpackages in
``__all__``, so that line would run both in full, with ``unittest``,
``email``, ``importlib.metadata``, ``charset_normalizer`` and the codecs
behind them (about 9 MB of a training process's peak RSS).  Unless a
package is already imported, ``sys.modules`` and the ``numpy`` attribute
hold an ``importlib.util.LazyLoader`` module for it.  A host program sees
that lazy module until it first reads an attribute of it or imports it,
which runs the package in full; a program that imported either package
before ``mmgc`` keeps it as it was.  Python 3.11's ``LazyLoader`` takes no
lock on that first access, so a host whose threads may first touch either
package at the same time should import it before ``mmgc``.
"""


def _defer_unused_numpy_packages():
    import importlib.util
    import sys

    import numpy

    for name in ("numpy.f2py", "numpy.testing"):
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        setattr(numpy, name.rpartition(".")[2], module)


_defer_unused_numpy_packages()
del _defer_unused_numpy_packages
