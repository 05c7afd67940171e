"""RA003 seeded violation: a per-engine ``isinstance`` dispatch ladder.

Each branch silently falls through when a new query type is added
instead of raising ``UnsupportedQueryError``.
"""


class KNNQuery:
    pass


class RangeQuery:
    pass


def execute(engine, query):
    # BAD: execute must call the method the query's kind names.
    if isinstance(query, KNNQuery):
        return engine.knn(query.node, query.k)
    if isinstance(query, (RangeQuery, tuple)):
        return engine.range(query.node, query.radius)
    raise TypeError(query)
