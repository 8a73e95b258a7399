package campaign

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corenet"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/probe"
	"repro/internal/ran"
	"repro/internal/slicing"
	"repro/internal/topo"
)

// klagenfurt is the campaign's sector grid and density raster, built
// once per process. Both are immutable; every world, every result and
// every restored result shares them.
var klagenfurt = sync.OnceValues(func() (*geo.Grid, *geo.DensityModel) {
	grid := geo.NewKlagenfurtGrid()
	return grid, geo.NewKlagenfurtDensity(grid)
})

// world is everything a run reads that its seed does not set: the
// traversal cells and their radio conditions, the drive orders, and
// every session and wired leg reduced to its fixed round trip and hop
// count. It is built once per shape and read-only after buildWorld
// returns, so any number of concurrent runs share it. It keeps no
// router, topology or user plane: nothing a run touches can change
// under it.
type world struct {
	grid    *geo.Grid
	density *geo.DensityModel
	// cells are the traversed cells, row-major; a ping refers to a cell
	// by its index here, into cond as well.
	cells   []geo.CellID
	cellIdx map[geo.CellID]int
	cond    []ran.Conditions
	routes  *mobility.Routes
	// sessions holds each probe target's session leg, anchored at the
	// shape's UPF; wired holds each probe pair's leg at src*len(sessions)+dst.
	sessions []leg
	wired    []leg
}

// leg is a routed path reduced to what a ping on it needs: the fixed
// part of its round trip and the hop count its jitter scales with, or
// the routing error its first ping returns.
type leg struct {
	rtt  time.Duration
	hops int
	err  error
}

// shape is the part of a canonical Config that sets its world.
type shape struct {
	peering, edgeUPF bool
	slicing          *SlicingPlacement
	cells            []string
}

func shapeOf(cfg Config) shape {
	return shape{peering: cfg.LocalPeering, edgeUPF: cfg.EdgeUPF, slicing: cfg.Slicing, cells: cfg.TargetCells}
}

// shapeKey is a shape's fixed-size memo key. The target cells enter as
// a hash, so looking a key up allocates nothing; an entry keeps the
// cells themselves, and a lookup compares them before using the entry.
type shapeKey struct {
	peering, edgeUPF, sliced bool
	strategy                 slicing.Strategy
	sites                    int
	cells                    uint64 // FNV-1a over the cell names
}

func (s shape) key() shapeKey {
	k := shapeKey{peering: s.peering, edgeUPF: s.edgeUPF, cells: 14695981039346656037}
	if s.slicing != nil {
		k.sliced, k.strategy, k.sites = true, s.slicing.Strategy, s.slicing.Sites
	}
	const prime = 1099511628211
	for _, c := range s.cells {
		for i := 0; i < len(c); i++ {
			k.cells = (k.cells ^ uint64(c[i])) * prime
		}
		k.cells = (k.cells ^ 0xff) * prime // name boundary
	}
	return k
}

// maxWorlds caps the shapes a process keeps a world for. A sweep
// crosses a handful (peering × edge UPF × probe layout); past the cap a
// run builds a throwaway world, at the cost every run paid before
// worlds were kept.
const maxWorlds = 64

// worldMemo keeps one world per shape, each built once behind its
// entry's sync.Once. A failed build is never kept.
type worldMemo struct {
	entries sync.Map     // shapeKey → *worldEntry
	kept    atomic.Int64 // entries stored, including builds in flight
}

type worldEntry struct {
	cells []string // the shape's target cells, owned by the entry
	once  sync.Once
	w     *world
	err   error
}

// worlds is the process-wide memo every Run draws its world from.
var worlds worldMemo

// get returns the world of a shape. A hit allocates nothing.
func (m *worldMemo) get(s shape) (*world, error) {
	k := s.key()
	v, ok := m.entries.Load(k)
	if !ok {
		if m.kept.Add(1) > maxWorlds {
			m.kept.Add(-1)
			return buildWorld(s)
		}
		var loaded bool
		if v, loaded = m.entries.LoadOrStore(k, &worldEntry{cells: slices.Clone(s.cells)}); loaded {
			m.kept.Add(-1)
		}
	}
	e := v.(*worldEntry)
	if !slices.Equal(e.cells, s.cells) {
		return buildWorld(s) // another shape under the same hash: served, not kept
	}
	e.once.Do(func() { e.w, e.err = buildWorld(s) })
	if e.err != nil && m.entries.CompareAndDelete(k, e) {
		m.kept.Add(-1)
	}
	return e.w, e.err
}

// probeError marks a build that failed attaching the sector probes. Run
// reports a bad AR deployment ahead of it, and any other build error
// before both.
type probeError struct{ err error }

func (e probeError) Error() string { return e.err.Error() }

// buildWorld builds a shape's world: it places the probes (from the
// slicing placement, if any), attaches them to the Central-Europe
// topology, and routes every session and every wired pair once. A
// routing failure is kept on its leg rather than failing the build,
// since only a run that pings the leg may return it.
func buildWorld(s shape) (*world, error) {
	grid, density := klagenfurt()
	targetCells := s.cells
	if s.slicing != nil {
		if len(s.cells) > 0 {
			return nil, fmt.Errorf("campaign: Slicing and TargetCells are mutually exclusive")
		}
		var err error
		if targetCells, err = SlicingCells(grid, density, *s.slicing); err != nil {
			return nil, err
		}
	}
	ce := topo.BuildCentralEurope()
	if s.peering {
		ce.EnableLocalPeering()
	}
	targets, err := AddSectorProbes(ce, grid, targetCells)
	if err != nil {
		return nil, probeError{err}
	}
	up := corenet.NewUserPlane(ce)
	upf := up.Central
	if s.edgeUPF {
		upf = up.Edge
	}
	eng := probe.NewEngine(up, nil)

	cells := density.TraversalCells()
	w := &world{
		grid:     grid,
		density:  density,
		cells:    cells,
		cellIdx:  make(map[geo.CellID]int, len(cells)),
		cond:     make([]ran.Conditions, len(cells)),
		routes:   mobility.NewRoutes(density),
		sessions: make([]leg, len(targets)),
		wired:    make([]leg, len(targets)*len(targets)),
	}
	for i, c := range cells {
		w.cellIdx[c] = i
		w.cond[i] = ran.Conditions{
			Load:   density.LoadFactor(c),
			SiteKm: geo.NearestSiteKm(grid, c),
		}
	}
	for t, tgt := range targets {
		sp, err := up.Establish(upf, tgt.Host)
		if err != nil {
			w.sessions[t] = leg{err: err}
			continue
		}
		w.sessions[t] = leg{rtt: sp.WiredRTT(eng.OfferedMpps), hops: sp.Backhaul.Hops() + sp.Breakout.Hops()}
	}
	for i, src := range targets {
		for j, dst := range targets {
			if i == j {
				continue
			}
			p, err := eng.WiredPath(src.Host, dst.Host)
			if err != nil {
				w.wired[i*len(targets)+j] = leg{err: err}
				continue
			}
			w.wired[i*len(targets)+j] = leg{rtt: p.RTT(), hops: p.Hops()}
		}
	}
	return w, nil
}
