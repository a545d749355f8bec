"""Packaging metadata."""

import os
import warnings

from setuptools.config.pyprojecttoml import read_configuration

import hamfe2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_project_version_is_the_package_version():
    with warnings.catch_warnings():
        # setuptools flags its [tool.setuptools] table as beta
        warnings.simplefilter("ignore")
        config = read_configuration(os.path.join(ROOT, "pyproject.toml"),
                                    expand=True)
    assert config["project"]["version"] == hamfe2.__version__


def test_every_export_resolves_once():
    names = hamfe2.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hamfe2, name)]
    assert missing == []
