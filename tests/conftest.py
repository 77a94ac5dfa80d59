"""Helpers shared by the test modules, given as fixtures."""

import csv

import pytest

from drsync import spec
from drsync.netsim import _EVENT_FIELDS, DeliveryEvent


def _read_delivery_csv(path: str) -> list[DeliveryEvent]:
    """Inverse of ``netsim.write_delivery_csv``, as ``Deliveries.events``,
    read with ``csv`` itself, apart from the reader under test."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == _EVENT_FIELDS
    return [
        DeliveryEvent(
            seq=int(seq),
            send_ms=int(send),
            arrive_ms=int(arrive) if arrive else None,
            deliver_ms=int(deliver) if deliver else None,
            late=spec.flag(late),
            retransmissions=int(retrans),
        )
        for seq, send, arrive, deliver, late, retrans in rows
    ]


@pytest.fixture
def read_delivery_csv():
    """Read a ``deliveries.csv`` back into a list of ``DeliveryEvent``."""
    return _read_delivery_csv
