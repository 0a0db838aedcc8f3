"""Weak values and von Neumann pointer simulations for pre/post-selected systems.

The modules are the API, and importing the package loads none of them;
import the ones you need (``from weakmeas import hardy, pointer``):

* ``qcore``: states, observables and their spectral families;
* ``prepost``: pre/post-selected ensembles, weak values and ABL odds;
* ``pointer``: Gaussian pointer mixtures, read-out and sampling;
* ``collective``: the N-pair collective pointer;
* ``hardy``: the double-interferometer scenario;
* ``verify``: the acceptance checks behind ``weakmeas verify``;
* ``cli``: the command-line interface;
* ``errors``: the exception types.
"""
