"""The 4-step cardinal halo exchange of Table I (§III-B, Fig. 4).

Every CG iteration each PE must obtain the search-direction columns of its
four lateral neighbours.  The paper's protocol:

* four steps; in each step four *actions* execute concurrently, one per
  parity group (odd/even on X, odd/even on Y);
* two data colors serve the X dimension (C1 for odd senders, C2 for even)
  and two serve Y (C3/C4); eight completion-callback colors (C5–C12)
  notify the caller per action;
* direction reversal (east→west, north→south between steps 1/3 and 2/4)
  is *not* re-programmed: each send is followed by a control wavelet that
  advances the switch position of the sender's and the receiver's routers
  (Fig. 4b / Listing 1), with ring mode restoring position 0 for the next
  iteration;
* a PE progresses to the next step only when the completion callbacks of
  its actions have fired; edge PEs with a missing neighbour complete the
  corresponding action immediately.

Buffers: received columns land in ``halo_W/E/N/S`` (named by the arrival
port, exactly Table I's "into W/E/N/S").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.util.errors import ConfigurationError
from repro.wse.color import ColorAllocator
from repro.wse.dsd import Dsd
from repro.wse.fabric import Fabric
from repro.wse.pe import ProcessingElement
from repro.wse.router import Port, RouteEntry

#: Buffer name for the column received on each port.
HALO_BUFFER = {
    Port.WEST: "halo_W",
    Port.EAST: "halo_E",
    Port.NORTH: "halo_N",
    Port.SOUTH: "halo_S",
}

NUM_STEPS = 4


class ActionKind(enum.Enum):
    SEND = "send"
    RECV = "recv"


class Action(NamedTuple):
    """One Table-I action: send to / receive from a port on a color, with
    a completion-callback color."""

    kind: ActionKind
    port: Port
    color: int
    cc: int


@dataclass(frozen=True)
class ExchangeColors:
    """The 12 colors of Table I.

    ``x_odd``/``x_even``/``y_odd``/``y_even`` are the routed data colors
    (C1..C4: named by which parity group *sends* on them); the ``cc_*``
    fields are the local completion-callback colors (C5..C12).
    """

    x_odd: int
    x_even: int
    y_odd: int
    y_even: int
    cc_send_east: int
    cc_recv_west: int
    cc_send_north: int
    cc_recv_south: int
    cc_send_west: int
    cc_recv_east: int
    cc_send_south: int
    cc_recv_north: int

    @classmethod
    def allocate(cls, colors: ColorAllocator) -> "ExchangeColors":
        return cls(
            x_odd=colors.allocate("C1-x-odd-data"),
            x_even=colors.allocate("C2-x-even-data"),
            y_odd=colors.allocate("C3-y-odd-data"),
            y_even=colors.allocate("C4-y-even-data"),
            cc_send_east=colors.allocate("C5-cc-send-east"),
            cc_recv_west=colors.allocate("C6-cc-recv-west"),
            cc_send_north=colors.allocate("C7-cc-send-north"),
            cc_recv_south=colors.allocate("C8-cc-recv-south"),
            cc_send_west=colors.allocate("C9-cc-send-west"),
            cc_recv_east=colors.allocate("C10-cc-recv-east"),
            cc_send_south=colors.allocate("C11-cc-send-south"),
            cc_recv_north=colors.allocate("C12-cc-recv-north"),
        )


class HaloExchange:
    """Reusable exchange engine over a fabric.

    Construction programs every router (switch positions + ring mode) and
    allocates the four halo receive buffers on every PE.  :meth:`start`
    runs one full 4-step round, delivering all four neighbour columns,
    then invokes ``on_pe_complete(pe)`` once per PE (inside that PE's
    task, so the FV kernel can run as a continuation — the event-driven
    "flux computation occurs immediately" behaviour of §III-B).
    """

    def __init__(self, fabric: Fabric, colors: ExchangeColors, depth: int):
        if depth < 1:
            raise ConfigurationError("exchange depth must be >= 1")
        self.fabric = fabric
        self.colors = colors
        self.depth = int(depth)
        self._state: dict[tuple[int, int], dict] = {}
        self._program_routers()
        self._allocate_buffers()
        self._register_callbacks()

    # -- static schedule -------------------------------------------------------

    def actions_for(self, pe_x: int, pe_y: int, step: int) -> list[Action]:
        """The (up to two) Table-I actions of PE ``(x, y)`` in ``step``.

        Null actions (missing neighbour) are included — the runtime
        completes them immediately — so the returned list always has one X
        action and one Y action.
        """
        if not 1 <= step <= NUM_STEPS:
            raise ConfigurationError(f"step must be 1..4, got {step}")
        c = self.colors
        x_odd = pe_x % 2 == 1
        y_odd = pe_y % 2 == 1
        x_table = {
            # step: (odd action, even action)
            1: (
                Action(ActionKind.SEND, Port.EAST, c.x_odd, c.cc_send_east),
                Action(ActionKind.RECV, Port.WEST, c.x_odd, c.cc_recv_west),
            ),
            2: (
                Action(ActionKind.RECV, Port.WEST, c.x_even, c.cc_recv_west),
                Action(ActionKind.SEND, Port.EAST, c.x_even, c.cc_send_east),
            ),
            3: (
                Action(ActionKind.SEND, Port.WEST, c.x_odd, c.cc_send_west),
                Action(ActionKind.RECV, Port.EAST, c.x_odd, c.cc_recv_east),
            ),
            4: (
                Action(ActionKind.RECV, Port.EAST, c.x_even, c.cc_recv_east),
                Action(ActionKind.SEND, Port.WEST, c.x_even, c.cc_send_west),
            ),
        }
        y_table = {
            1: (
                Action(ActionKind.SEND, Port.NORTH, c.y_odd, c.cc_send_north),
                Action(ActionKind.RECV, Port.SOUTH, c.y_odd, c.cc_recv_south),
            ),
            2: (
                Action(ActionKind.RECV, Port.SOUTH, c.y_even, c.cc_recv_south),
                Action(ActionKind.SEND, Port.NORTH, c.y_even, c.cc_send_north),
            ),
            3: (
                Action(ActionKind.SEND, Port.SOUTH, c.y_odd, c.cc_send_south),
                Action(ActionKind.RECV, Port.NORTH, c.y_odd, c.cc_recv_north),
            ),
            4: (
                Action(ActionKind.RECV, Port.NORTH, c.y_even, c.cc_recv_north),
                Action(ActionKind.SEND, Port.SOUTH, c.y_even, c.cc_send_south),
            ),
        }
        x_action = x_table[step][0 if x_odd else 1]
        y_action = y_table[step][0 if y_odd else 1]
        return [x_action, y_action]

    def _is_live(self, pe_x: int, pe_y: int, action: Action) -> bool:
        """Whether the action actually moves data (neighbour exists)."""
        return self.fabric.neighbor_coords(pe_x, pe_y, action.port) is not None

    # -- router programming ------------------------------------------------------

    def _program_routers(self) -> None:
        """Derive each PE's per-color switch-position list from its live
        actions, in chronological step order (see module docstring)."""
        for pe in self.fabric.iter_pes():
            entries: dict[int, list[RouteEntry]] = {}
            for step in range(1, NUM_STEPS + 1):
                for action in self.actions_for(pe.x, pe.y, step):
                    if not self._is_live(pe.x, pe.y, action):
                        continue
                    if action.kind is ActionKind.SEND:
                        entry = RouteEntry.of(Port.RAMP, action.port)
                    else:
                        entry = RouteEntry.of(action.port, Port.RAMP)
                    entries.setdefault(action.color, []).append(entry)
            router = self.fabric.router(pe.x, pe.y)
            for color, positions in entries.items():
                router.set_route(color, positions, ring_mode=True)

    def _allocate_buffers(self) -> None:
        for pe in self.fabric.iter_pes():
            for name in HALO_BUFFER.values():
                if name not in pe.memory:
                    pe.memory.alloc(name, self.depth, dtype=self.fabric.dtype)

    def _register_callbacks(self) -> None:
        c = self.colors
        cc_colors = [
            c.cc_send_east, c.cc_recv_west, c.cc_send_north, c.cc_recv_south,
            c.cc_send_west, c.cc_recv_east, c.cc_send_south, c.cc_recv_north,
        ]
        for pe in self.fabric.iter_pes():
            for cc in cc_colors:
                pe.on_activate(cc, self._make_cc_handler(pe))

    def _make_cc_handler(self, pe: ProcessingElement) -> Callable[[], None]:
        def _on_cc() -> None:
            state = self._state[(pe.x, pe.y)]
            state["pending"] -= 1
            if state["pending"] < 0:  # pragma: no cover - protocol bug guard
                raise ConfigurationError(
                    f"PE ({pe.x},{pe.y}): spurious completion callback"
                )
            if state["pending"] == 0:
                if state["step"] < NUM_STEPS:
                    state["step"] += 1
                    self._begin_step(pe, state["step"])
                else:
                    state["step"] = NUM_STEPS + 1
                    state["rounds"] = state.get("rounds", 0) + 1
                    on_complete = state.get("on_complete")
                    if on_complete is not None:
                        on_complete(pe)

        return _on_cc

    # -- execution ---------------------------------------------------------------

    def begin_pe(
        self,
        pe: ProcessingElement,
        send_buffer: str,
        on_complete: Callable[[ProcessingElement], None] | None = None,
    ) -> None:
        """Enter one PE into a new exchange round (inside or outside a
        task).  PEs may enter at different times: data from a faster
        neighbour queues in the ramp FIFO and control wavelets advance
        switch positions at the router level regardless of PE progress,
        so up-to-one-step skew is safe (tested).
        """
        prev = self._state.get((pe.x, pe.y))
        rounds = prev.get("rounds", 0) if prev else 0
        self._state[(pe.x, pe.y)] = {
            "step": 1,
            "pending": 0,
            "rounds": rounds,
            "send_buffer": send_buffer,
            "on_complete": on_complete,
        }
        if pe.in_task:
            self._begin_step(pe, 1)
        else:
            self.fabric.schedule_task(
                pe,
                self.fabric.now,
                lambda: self._begin_step(pe, 1),
                tag="exchange-step1",
            )

    def start(
        self,
        send_buffer: str,
        on_pe_complete: Callable[[ProcessingElement], None] | None = None,
    ) -> None:
        """Begin one exchange round on every PE simultaneously.

        Convenience for tests and standalone use; the dataflow CG enters
        PEs individually via :meth:`begin_pe`.
        """
        for pe in self.fabric.iter_pes():
            self.begin_pe(pe, send_buffer, on_pe_complete)

    def _begin_step(self, pe: ProcessingElement, step: int) -> None:
        """Run both of the PE's actions for ``step`` (inside a PE task)."""
        state = self._state[(pe.x, pe.y)]
        actions = self.actions_for(pe.x, pe.y, step)
        state["pending"] = len(actions)
        for action in actions:
            live = self._is_live(pe.x, pe.y, action)
            if action.kind is ActionKind.SEND:
                if live:
                    send_dsd = Dsd(pe.memory.get(state["send_buffer"]))
                    pe.send(action.color, send_dsd, tag=f"halo-{action.port.name}")
                    # Advance our own and the receiver's switch for the
                    # reversed direction of step 3/4 (Fig. 4b).
                    pe.send_control(action.color, tag="halo-switch")
                pe.activate(action.cc)
            else:
                dest = Dsd(pe.memory.get(HALO_BUFFER[action.port]))
                expected = self.depth if live else 0
                if not live:
                    # Nothing will arrive: the halo stays zero (and the
                    # boundary coefficient is zero anyway).  Fire the CC.
                    pe.activate(action.cc)
                    continue
                pe.recv_into(
                    action.color,
                    dest,
                    expected,
                    completion_color=action.cc,
                )
