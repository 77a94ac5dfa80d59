"""Helpers shared by the test modules, given as fixtures."""

import pytest

from drsync import spec
from drsync.netsim import _EVENT_FIELDS, DeliveryEvent


def _read_delivery_csv(path: str) -> list[DeliveryEvent]:
    """Inverse of ``netsim.write_delivery_csv``, as ``Deliveries.events``."""

    def event(row: list[str]) -> DeliveryEvent:
        seq, send, arrive, deliver, late, retrans = row
        return DeliveryEvent(
            seq=int(seq),
            send_ms=int(send),
            arrive_ms=int(arrive) if arrive else None,
            deliver_ms=int(deliver) if deliver else None,
            late=spec.flag(late),
            retransmissions=int(retrans),
        )

    return spec.read_csv(path, {_EVENT_FIELDS: event})


@pytest.fixture
def read_delivery_csv():
    """Read a ``deliveries.csv`` back into a list of ``DeliveryEvent``."""
    return _read_delivery_csv
