"""The public API: a native XML-DBMS with a session-oriented client layer.

>>> from repro.core import XmlDbms                       # doctest: +SKIP
>>> dbms = XmlDbms("/tmp/library.db")
>>> dbms.load("fig2", xml="<journal>...</journal>")
>>> session = dbms.session()
>>> prepared = session.prepare("fig2", "for $n in //name return $n")
>>> with prepared.execute() as cursor:
...     cursor.serialize()
'<name>Ana</name><name>Bob</name>'
"""

from repro.core.dbms import XmlDbms
from repro.core.server import QueryServer, QueryService, ServerStats
from repro.core.session import (
    CacheInfo,
    Cursor,
    ExecutionOptions,
    ExplainReport,
    PlanExplain,
    PreparedQuery,
    Session,
)
from repro.core.stream import PageStream
from repro.obs import LatencyHistogram, LatencySnapshot

__all__ = [
    "XmlDbms",
    "Session",
    "PreparedQuery",
    "Cursor",
    "ExecutionOptions",
    "ExplainReport",
    "PlanExplain",
    "CacheInfo",
    "QueryServer",
    "QueryService",
    "PageStream",
    "ServerStats",
    "LatencyHistogram",
    "LatencySnapshot",
]
