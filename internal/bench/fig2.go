package bench

import (
	"fmt"

	"jmachine/internal/asm"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/word"
)

// Fig2Result holds the round-trip-latency-versus-distance curves of
// Figure 2 plus the base-latency decomposition quoted in the text.
type Fig2Result struct {
	Series []Series // cycles vs hops: Ping, Read1 Imem/Emem, Read6 Imem/Emem
	// SelfPingCycles is the 0-hop ping RTT (the paper's 43-cycle base).
	SelfPingCycles int64
	// SlopePerHop is the fitted round-trip slope (the paper's 2).
	SlopePerHop float64
}

// Fig2 measures round-trip latency of null RPCs versus distance on an
// unloaded machine: Ping (2-word request, 1-word ack) and remote reads
// of 1 or 6 words from internal or external memory (3-word request, 2-
// or 7-word reply).
func Fig2(o Options) (*Fig2Result, error) {
	k := 8
	if o.Quick {
		k = 4
	}
	cfg := machine.Cube(k)
	maxHops := 3 * (k - 1)

	// Probe targets once.
	probe := machine.MustNew(cfg, buildMicroProgram(buildPingClient))
	targets := hopTargets(probe, maxHops)

	res := &Fig2Result{}

	ping := buildMicroProgram(buildPingClient)
	read1 := buildMicroProgram(buildReadClient(rt.LRRead1))
	read6 := buildMicroProgram(buildReadClient(rt.LRRead6))

	runSeries := func(label string, p *asm.Program, addr int32, words int) (Series, error) {
		s := Series{Label: label}
		for d, target := range targets {
			cycles, err := runRoundTrip(o.Config, p, cfg, target, func(m *machine.Machine) {
				if addr >= 0 {
					m.Nodes[0].Mem.Write(rt.AppBase+1, word.Int(addr))
					for i := 0; i < words; i++ {
						m.Nodes[target].Mem.Write(addr+int32(i), word.Int(int32(i)))
					}
				}
			})
			if err != nil {
				return s, fmt.Errorf("%s at %d hops: %w", label, d, err)
			}
			s.Points = append(s.Points, Point{X: float64(d), Y: float64(cycles)})
			o.progress("fig2 %s d=%d rtt=%d", label, d, cycles)
		}
		return s, nil
	}

	for _, v := range []struct {
		label string
		prog  *asm.Program
		addr  int32
		words int
	}{
		{"Ping", ping, -1, 0},
		{"Read 1 (Imem)", read1, imemAddr(), 1},
		{"Read 1 (Emem)", read1, ememAddr(), 1},
		{"Read 6 (Imem)", read6, imemAddr(), 6},
		{"Read 6 (Emem)", read6, ememAddr(), 6},
	} {
		s, err := runSeries(v.label, v.prog, v.addr, v.words)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}

	pingSeries := res.Series[0]
	res.SelfPingCycles = int64(pingSeries.Points[0].Y)
	n := len(pingSeries.Points)
	res.SlopePerHop = (pingSeries.Points[n-1].Y - pingSeries.Points[0].Y) /
		(pingSeries.Points[n-1].X - pingSeries.Points[0].X)
	return res, nil
}

// Table renders the figure as a data table.
func (r *Fig2Result) Table() *Table {
	t := SeriesTable("Figure 2: Round-trip latency vs distance (cycles)",
		"hops", "cycles", r.Series)
	t.Notes = append(t.Notes,
		fmt.Sprintf("self-ping base latency %d cycles (paper: 43)", r.SelfPingCycles),
		fmt.Sprintf("round-trip slope %.2f cycles/hop (paper: 2)", r.SlopePerHop))
	return t
}
