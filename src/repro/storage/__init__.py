"""Simulated storage devices.

The paper's evaluation ran on 8 striped 7,200 RPM SATA HDDs and a 160 GB
SLC Fusion-io SSD; neither is available here, so this package models both
as queueing servers on the :mod:`repro.sim` kernel, calibrated so that an
Iometer-style measurement loop (:mod:`repro.storage.iometer`) reproduces
the sustained-IOPS figures of the paper's Table 1:

===========  ======  ======  ===========  ======  ======
READ         Ran.    Seq.    WRITE        Ran.    Seq.
===========  ======  ======  ===========  ======  ======
8 HDDs       1,015   26,370  8 HDDs       895     9,463
SSD          12,182  15,980  SSD          12,374  14,965
===========  ======  ======  ===========  ======  ======

(8 KB page-sized I/Os, disk write caching off.)
"""

from repro.storage.request import IoKind, IORequest
from repro.storage.device import Device, DeviceStats, TrafficRecorder
from repro.storage.hdd import HddArray
from repro.storage.ssd import Ssd

__all__ = [
    "Device",
    "DeviceStats",
    "HddArray",
    "IoKind",
    "IORequest",
    "Ssd",
    "TrafficRecorder",
]
