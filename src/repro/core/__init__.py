"""The paper's contribution: HOPE and HOPE+ as distributed dataflow.

Import from the submodules (``core.graph``, ``core.hope``,
``core.hopeplus``, ``core.reference``); the package binds no function
under a submodule's name.
"""
