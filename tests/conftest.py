"""Import fingabor before any test module imports numpy, so that the
suite runs under the package's BLAS thread policy, as a user's process
does (see ``fingabor/__init__.py``)."""
import fingabor  # noqa: F401
