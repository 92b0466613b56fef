"""Legacy setup shim.

All project metadata lives in pyproject.toml, which has no
``[build-system]`` table so that setuptools' legacy path keeps working:
``python setup.py develop`` installs the package and its ``repro``
console script with setuptools alone, where a PEP 517/660 install through
pip also needs the ``wheel`` package.
"""

from setuptools import setup

setup()
