import shutil
import tempfile

from hypothesis import configuration


def pytest_configure(config):
    # Whatever the database setting, Hypothesis caches the constants it
    # parses from local source files under its home directory; keep that
    # cache out of the working tree.
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    configuration.set_hypothesis_home_dir(home)
