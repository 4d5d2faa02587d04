package mesh

import (
	"testing"
	"testing/quick"

	"pimdsm/internal/sim"
)

func cfg4x4() Config {
	return Config{Width: 4, Height: 4, BytesPerCycle: 2, RouterDelay: 10, HeaderBytes: 16}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 4, BytesPerCycle: 2}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(Config{Width: 4, Height: 4, BytesPerCycle: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	m := MustNew(cfg4x4())
	for n := 0; n < m.Nodes(); n++ {
		x, y := m.Coord(n)
		if m.NodeAt(x, y) != n {
			t.Fatalf("Coord/NodeAt mismatch for %d", n)
		}
	}
}

func TestHops(t *testing.T) {
	m := MustNew(cfg4x4())
	cases := []struct{ s, d, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},
		{0, 5, 2},
		{0, 15, 6}, // corner to corner in 4x4: 3+3
		{3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.s, c.d); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.s, c.d, got, c.want)
		}
	}
}

func TestSendUncontendedLatency(t *testing.T) {
	m := MustNew(cfg4x4())
	// 0 -> 5 is 2 hops; 16B control: ser=8.
	// latency = hops*RouterDelay + ser = 20 + 8 = 28.
	if got := m.Send(100, 0, 5, 16); got != 128 {
		t.Fatalf("arrival = %d, want 128", got)
	}
	// Data message 16+128 = 144B: ser = 72; 2 hops => 20+72 = 92.
	if got := m.Send(200, 0, 5, 144); got != 292 {
		t.Fatalf("data arrival = %d, want 292", got)
	}
}

func TestSendSelf(t *testing.T) {
	m := MustNew(cfg4x4())
	if got := m.Send(50, 3, 3, 16); got != 58 {
		t.Fatalf("self-send arrival = %d, want 58", got)
	}
}

func TestLinkContention(t *testing.T) {
	m := MustNew(cfg4x4())
	// Two messages over the same first link (0 -> east) at the same time:
	// the second queues behind the first's serialization.
	a := m.Send(0, 0, 1, 144) // ser 72: link busy [0,72), arrive 10+72=82
	b := m.Send(0, 0, 1, 144) // starts at 72: arrive 72+10+72=154
	if a != 82 || b != 154 {
		t.Fatalf("arrivals = %d,%d want 82,154", a, b)
	}
	st := m.Stats()
	if st.Messages != 2 || st.Queued != 72 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	m := MustNew(cfg4x4())
	a := m.Send(0, 0, 1, 16)
	b := m.Send(0, 4, 5, 16) // different row, disjoint links
	if a != 18 || b != 18 {
		t.Fatalf("arrivals = %d,%d want 18,18", a, b)
	}
	if q := m.Stats().Queued; q != 0 {
		t.Fatalf("queued = %d, want 0", q)
	}
}

func TestXYRoutingDeterminism(t *testing.T) {
	// Same sends on two meshes produce identical timings.
	m1, m2 := MustNew(cfg4x4()), MustNew(cfg4x4())
	pairs := [][2]int{{0, 15}, {7, 8}, {3, 12}, {15, 0}, {5, 10}}
	for i, p := range pairs {
		now := sim.Time(i * 13)
		if m1.Send(now, p[0], p[1], 144) != m2.Send(now, p[0], p[1], 144) {
			t.Fatal("mesh timing not deterministic")
		}
	}
}

func TestAvgHops(t *testing.T) {
	m := MustNew(cfg4x4())
	// For a 4x4 mesh the mean XY distance over distinct ordered pairs is 2.666…
	got := m.AvgHops()
	if got < 2.5 || got > 2.8 {
		t.Fatalf("AvgHops = %v, want ≈2.67", got)
	}
}

// Property: arrival time is always ≥ send time + hops*RouterDelay + ser, and
// monotonically consistent with queueing (never earlier than uncontended).
func TestArrivalLowerBoundProperty(t *testing.T) {
	f := func(srcRaw, dstRaw uint8, nowRaw uint16, data bool) bool {
		m := MustNew(cfg4x4())
		src := int(srcRaw) % 16
		dst := int(dstRaw) % 16
		now := sim.Time(nowRaw)
		bytes := uint64(16)
		if data {
			bytes = 144
		}
		arrive := m.Send(now, src, dst, bytes)
		ser := sim.Time((bytes + 1) / 2)
		var lower sim.Time
		if src == dst {
			lower = now + ser
		} else {
			lower = now + sim.Time(m.Hops(src, dst))*10 + ser
		}
		return arrive >= lower
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultConfigPinnedToPaper pins the default link parameters to the
// paper's Table 1: 2-byte-wide 1 GHz links, a 10-cycle router head latency
// and a 16-byte header.
func TestDefaultConfigPinnedToPaper(t *testing.T) {
	c := DefaultConfig(8, 4)
	if c.BytesPerCycle != 2 || c.RouterDelay != 10 || c.HeaderBytes != 16 {
		t.Fatalf("Table 1 link parameters drifted: %+v", c)
	}
}
