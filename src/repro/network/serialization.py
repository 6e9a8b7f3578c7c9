"""JSON-safe (de)serialization of topologies, contracts and requests.

RTnet's current version configures all real-time connections *offline*
(Section 5: "the proposed CAC algorithm [is] used to set up real-time
connections off-line"); that workflow needs network descriptions and
connection sets that live in files.  Everything here round-trips
through plain dicts of JSON types -- rationals are encoded as "p/q"
strings so exact traffic contracts survive the trip.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Mapping, Union

from ..core.bitstream import BitStream
from ..core.switch_cac import Leg
from ..core.traffic import VBRParameters
from ..exceptions import ReproError
from .connection import ConnectionRequest
from .routing import Route
from .topology import Network

__all__ = [
    "number_to_json",
    "number_from_json",
    "traffic_to_dict",
    "traffic_from_dict",
    "network_to_dict",
    "network_from_dict",
    "request_to_dict",
    "request_from_dict",
    "stream_to_dict",
    "stream_from_dict",
    "leg_to_dict",
    "leg_from_dict",
    "switch_state_to_dict",
    "switch_state_from_dict",
]


class SerializationError(ReproError, ValueError):
    """Malformed serialized form."""


def number_to_json(value: Union[int, float, Fraction]) -> Union[int, float, str]:
    """Encode a number; Fractions become exact "p/q" strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def number_from_json(value: Union[int, float, str]) -> Union[int, float, Fraction]:
    """Decode a number encoded by :func:`number_to_json`."""
    if isinstance(value, str):
        try:
            numerator, denominator = value.split("/")
            return Fraction(int(numerator), int(denominator))
        except (ValueError, ZeroDivisionError) as err:
            raise SerializationError(f"bad rational {value!r}") from err
    return value


def traffic_to_dict(params: VBRParameters) -> Dict[str, Any]:
    """Serialize a traffic contract."""
    return {
        "pcr": number_to_json(params.pcr),
        "scr": number_to_json(params.scr),
        "mbs": number_to_json(params.mbs),
    }


def traffic_from_dict(data: Mapping[str, Any]) -> VBRParameters:
    """Rebuild a traffic contract."""
    try:
        return VBRParameters(
            pcr=number_from_json(data["pcr"]),
            scr=number_from_json(data["scr"]),
            mbs=number_from_json(data["mbs"]),
        )
    except KeyError as err:
        raise SerializationError(f"traffic dict missing {err}") from None


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Serialize a topology (nodes, links, advertised bounds)."""
    return {
        "nodes": [
            {"name": node.name, "kind": node.kind}
            for node in network.nodes()
        ],
        "links": [
            {
                "name": link.name,
                "src": link.src,
                "dst": link.dst,
                "capacity": link.capacity,
                "bounds": {
                    str(priority): number_to_json(bound)
                    for priority, bound in link.bounds.items()
                },
            }
            for link in network.links()
        ],
    }


def network_from_dict(data: Mapping[str, Any]) -> Network:
    """Rebuild a topology serialized by :func:`network_to_dict`."""
    network = Network()
    try:
        for node in data["nodes"]:
            network.add_node(node["name"], node["kind"])
        for link in data["links"]:
            network.add_link(
                link["src"], link["dst"], name=link["name"],
                capacity=link.get("capacity", 1.0),
                bounds={
                    int(priority): number_from_json(bound)
                    for priority, bound in link.get("bounds", {}).items()
                },
            )
    except KeyError as err:
        raise SerializationError(f"network dict missing {err}") from None
    return network


def request_to_dict(request: ConnectionRequest) -> Dict[str, Any]:
    """Serialize a connection request (route as link names)."""
    return {
        "name": request.name,
        "traffic": traffic_to_dict(request.traffic),
        "route": list(request.route.link_names),
        "priority": request.priority,
        "delay_bound": (
            None if request.delay_bound is None
            else number_to_json(request.delay_bound)
        ),
    }


def request_from_dict(data: Mapping[str, Any],
                      network: Network) -> ConnectionRequest:
    """Rebuild a request against a live topology."""
    try:
        delay_bound = data.get("delay_bound")
        return ConnectionRequest(
            name=data["name"],
            traffic=traffic_from_dict(data["traffic"]),
            route=Route(network, data["route"]),
            priority=data.get("priority", 0),
            delay_bound=(
                None if delay_bound is None
                else number_from_json(delay_bound)
            ),
        )
    except KeyError as err:
        raise SerializationError(f"request dict missing {err}") from None


def stream_to_dict(stream: BitStream) -> Dict[str, Any]:
    """Serialize a worst-case arrival stream (exact breakpoints)."""
    return {
        "times": [number_to_json(t) for t in stream.times],
        "rates": [number_to_json(r) for r in stream.rates],
    }


def stream_from_dict(data: Mapping[str, Any]) -> BitStream:
    """Rebuild a stream serialized by :func:`stream_to_dict`."""
    try:
        times = [number_from_json(t) for t in data["times"]]
        rates = [number_from_json(r) for r in data["rates"]]
    except KeyError as err:
        raise SerializationError(f"stream dict missing {err}") from None
    return BitStream(rates, times)


def leg_to_dict(leg: Leg) -> Dict[str, Any]:
    """Serialize one switch leg (id, ports, priority, exact stream)."""
    return {
        "connection_id": leg.connection_id,
        "in_link": leg.in_link,
        "out_link": leg.out_link,
        "priority": leg.priority,
        "stream": stream_to_dict(leg.stream),
    }


def leg_from_dict(data: Mapping[str, Any]) -> Leg:
    """Rebuild a leg serialized by :func:`leg_to_dict`."""
    try:
        return Leg(
            connection_id=data["connection_id"],
            in_link=data["in_link"],
            out_link=data["out_link"],
            priority=data["priority"],
            stream=stream_from_dict(data["stream"]),
        )
    except KeyError as err:
        raise SerializationError(f"leg dict missing {err}") from None


def switch_state_to_dict(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Serialize a :meth:`SwitchCAC.snapshot_state` leg snapshot.

    The legs fully determine every aggregate, so this round trip is a
    complete persistence story for one switch: restore with
    :func:`switch_state_from_dict` into
    :meth:`SwitchCAC.restore_state` (journaled, crash-recoverable).
    """
    return {
        "committed": [leg_to_dict(leg)
                      for leg in snapshot.get("committed", ())],
        "pending": [leg_to_dict(leg)
                    for leg in snapshot.get("pending", ())],
    }


def switch_state_from_dict(data: Mapping[str, Any]) -> Dict[str, List[Leg]]:
    """Rebuild a leg snapshot serialized by :func:`switch_state_to_dict`."""
    return {
        "committed": [leg_from_dict(item)
                      for item in data.get("committed", [])],
        "pending": [leg_from_dict(item)
                    for item in data.get("pending", [])],
    }
