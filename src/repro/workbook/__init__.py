"""A headless "workbook" host application.

The paper implements Humboldt inside Sigma Workbook, a commercial SaaS BI
tool.  This package is the open substitute: a host application that opens
its catalog through the :class:`~repro.federation.facade.Discovery` front
door (as the one member ``main``), hosts per-user sessions with tabs,
selections, previews and role switching on that member's generated
interface, and logs every UI event — the instrumentation the simulated
user study reads.
"""

from repro.workbook.app import WorkbookApp
from repro.workbook.events import EventLog, UiEvent
from repro.workbook.session import Session

__all__ = ["EventLog", "Session", "UiEvent", "WorkbookApp"]
