"""Bare setup(): the package metadata lives in pyproject.toml.

setup.py stays for the offline editable install, ``python setup.py
develop``, which needs only setuptools. pip's editable install builds
metadata through ``bdist_wheel``, so without the ``wheel`` package it fails
with ``invalid command 'bdist_wheel'`` (and pip refuses ``--no-use-pep517``
without ``wheel``).
"""
from setuptools import setup

setup()
