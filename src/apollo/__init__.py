"""Apollo: compiler-guided repair of LLM-generated Lean 4 proofs.

The package imports nothing, so `python -m apollo.testing.fake_repl` starts
on the standard library alone.  The entry points are `apollo.cli.main`,
`apollo.engine.apollo` and `apollo.proofscript.parse_script`.
"""

__version__ = "0.1.0"
