"""End-to-end benchmark with a per-layer cost ledger (see ``run.py``)."""
