import shutil
import tempfile
import warnings

from hypothesis import configuration


def pytest_configure(config):
    # Whatever the database setting, Hypothesis caches the constants it
    # parses from local source files under its home directory; keep that
    # cache out of the working tree.
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    configuration.set_hypothesis_home_dir(home)
    # On a failing example the Hypothesis plugin imports its patch writer,
    # whose libcst import warns about mypy_extensions.TypedDict; under
    # `-W error` that warning aborts the session instead of reporting the
    # failure.  Import it now, with only that warning silenced.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=DeprecationWarning,
                                message="mypy_extensions.TypedDict")
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # without libcst there is nothing to import
            pass
