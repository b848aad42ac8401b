"""Setuptools shim.

The package metadata lives in ``pyproject.toml``.  This file only lets
``python setup.py develop`` make an editable install where ``pip
install -e .`` cannot build one (an offline setuptools without the
``wheel`` package).
"""

from setuptools import setup

setup()
