"""Driver-contract registry invariants (no Ray needed)."""


def test_every_oracle_has_a_query_and_all_are_callable():
    import __ray_entry__ as e

    q = e.queries()
    o = e.oracle_sql()
    assert set(o) <= set(q), sorted(set(o) - set(q))
    assert all(callable(f) for f in q.values())
    assert all(isinstance(s, str) and "SELECT" in s.upper()
               for s in o.values())


def test_registry_size_floor():
    """Coverage must never silently shrink below the round-4 level."""
    import __ray_entry__ as e

    assert len(e.queries()) >= 75
    assert len(e.oracle_sql()) >= 65
