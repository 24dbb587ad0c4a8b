package sptt

import (
	"fmt"
	"time"

	"dmt/internal/comm"
	"dmt/internal/embeddings"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// Engine holds the embedding tables of one distribution problem and executes
// every flow of the dataflow over communicator families and layout tables it
// builds once. Tables are logically owned by Config.RankOf; only the owning
// rank's goroutine reads or updates a table, mirroring model parallelism.
// An Engine runs one forward or backward call at a time.
type Engine struct {
	Cfg    Config
	Tables []*nn.EmbeddingBag // indexed by feature
	// Tier is the embedding backend every table-wise step (b) lookup goes
	// through. NewEngine installs an in-process Local over Tables
	// (bitwise identical to direct table access); the distributed trainer
	// passes NewEngineOver its own tier over the same tables — a Local
	// carrying the training learning rate, or a RemoteTier whose lookups
	// travel the simulated fabric.
	Tier embeddings.Tier

	// The layout, derived from Cfg once: the index maps step (d)'s and the
	// flat flow's send chunks are gathered through; owned[r], the features
	// rank r looks up in steps (a)+(b); and tower[t], the feature order of
	// tower t's block in steps (d)–(f).
	peerOrder, rankOrder []int
	owned, tower         [][]int

	// bags[r][o] is rank r's step (a) message to owner o, and wire[r] its
	// step (f) payloads, kept from call to call.
	bags [][]*bagMsg
	wire []peerWire

	// fam is the communicator cache: the families of the last completed
	// run (a failed one cancels their network), reused as long as calls
	// name the same Comms.Net.
	fam *families
}

// NewEngine builds the engine over deterministic tables it seeds for the
// configuration.
func NewEngine(cfg Config, seed uint64) (*Engine, error) {
	if err := cfg.Validate(len(cfg.TowerOf) > 0); err != nil {
		return nil, err
	}
	r := tensor.NewRNG(seed)
	tables := make([]*nn.EmbeddingBag, len(cfg.Features))
	for f, spec := range cfg.Features {
		tables[f] = nn.NewEmbeddingBag(r.Split(uint64(f)+1), spec.Cardinality, cfg.N, spec.Name)
	}
	return NewEngineOver(cfg, tables, embeddings.NewLocal(tables, 0))
}

// NewEngineOver builds the engine over tables the caller seeded, one per
// Config.Features entry with its cardinality and dimension N, and
// tier, a backend over those same tables. The engine adopts both: Tables
// holds these very tables, not copies.
func NewEngineOver(cfg Config, tables []*nn.EmbeddingBag, tier embeddings.Tier) (*Engine, error) {
	towers := len(cfg.TowerOf) > 0
	if err := cfg.Validate(towers); err != nil {
		return nil, err
	}
	if len(tables) != cfg.F() {
		return nil, fmt.Errorf("sptt: %d tables for %d features", len(tables), cfg.F())
	}
	e := &Engine{Cfg: cfg, Tables: tables, Tier: tier, peerOrder: PeerOrder(cfg.G, cfg.L)}
	for f, spec := range cfg.Features {
		if t := tables[f]; t.Rows != spec.Cardinality || t.Dim != cfg.N {
			return nil, fmt.Errorf("sptt: table %d is %dx%d, feature %q wants %dx%d",
				f, t.Rows, t.Dim, spec.Name, spec.Cardinality, cfg.N)
		}
	}

	for g := 0; g < cfg.G; g++ {
		e.rankOrder = append(e.rankOrder, g)
		e.owned = append(e.owned, cfg.OwnedFeatures(g))
	}
	for g := 0; g < cfg.G; g++ {
		ms := make([]*bagMsg, cfg.G)
		for o := range ms {
			ms[o] = &bagMsg{feats: e.owned[o], b: cfg.B}
		}
		e.bags = append(e.bags, ms)
	}
	if towers {
		for t := 0; t < cfg.T(); t++ {
			e.tower = append(e.tower, cfg.TowerFeatures(t))
		}
		for g := 0; g < cfg.G; g++ {
			e.wire = append(e.wire, newPeerWire(cfg.T()))
		}
	}
	return e, nil
}

// families are the three communicator families of the dataflow, all built
// on one network: the failure domain a rank panic cancels as a whole.
type families struct {
	net    *comm.Network // as the caller named it; nil for a private one
	global []*comm.Comm
	host   [][]*comm.Comm // [host][local index]
	peer   [][]*comm.Comm // [class][host index]
}

// newFamilies is the package's only communicator constructor. Every group
// is built on net (a private zero-delay one if nil) with its ranks' GLOBAL
// identities (host h owns ranks h*l..h*l+l-1; peer class m owns {t*l+m}),
// so hops are priced by host placement on each rank's one virtual clock.
func newFamilies(g, l int, net *comm.Network) *families {
	t := g / l
	fm := &families{net: net}
	if net == nil {
		net = comm.NewNetwork(nil, g)
	}
	fm.global = comm.NewGroupNet(g, net, nil)
	for h := 0; h < t; h++ {
		granks := make([]int, l)
		for j := range granks {
			granks[j] = h*l + j
		}
		fm.host = append(fm.host, comm.NewGroupNet(l, net, granks))
	}
	for m := 0; m < l; m++ {
		granks := make([]int, t)
		for th := range granks {
			granks[th] = th*l + m
		}
		fm.peer = append(fm.peer, comm.NewGroupNet(t, net, granks))
	}
	return fm
}

// usage is what one call moved and waited for: per family, a G×G traffic
// matrix indexed by global rank, and the collective time summed over all
// ranks of all families.
type usage struct {
	global, host, peer [][]int64
	exposed, hidden    time.Duration
}

// tally adds sign × the families' cumulative counters to u. The groups
// outlive a call, so a call's own share is the tally after it minus the
// tally before it. Valid only while no rank goroutine is running.
func (fm *families) tally(u *usage, sign int64) {
	l := len(fm.peer)
	add := func(m [][]int64, grp []*comm.Comm, grank func(i int) int) {
		for i, c := range grp {
			for j := range grp {
				m[grank(i)][grank(j)] += sign * c.BytesSentTo(j)
			}
			e, h := c.Times()
			u.exposed += time.Duration(sign) * e
			u.hidden += time.Duration(sign) * h
		}
	}
	add(u.global, fm.global, func(i int) int { return i })
	for h, grp := range fm.host {
		add(u.host, grp, func(j int) int { return h*l + j })
	}
	for m, grp := range fm.peer {
		add(u.peer, grp, func(t int) int { return t*l + m })
	}
}

// run executes fn once per rank, each on its own goroutine with the rank's
// three communicators, and returns what this call alone moved and waited
// for. A panicking rank cancels the families' one network, so no peer
// deadlocks on a sub-group receive, and Run re-raises it with the rank.
func (e *Engine) run(net *comm.Network, fn func(global, host, peer *comm.Comm)) usage {
	g, l := e.Cfg.G, e.Cfg.L
	fm := e.fam
	if fm == nil || fm.net != net {
		fm = newFamilies(g, l, net)
	}
	// A canceled network cannot be reused, so the cache is emptied for the
	// duration of the run and refilled only if it completes: the call after
	// a failed one builds fresh families.
	e.fam = nil
	mk := func() [][]int64 {
		m := make([][]int64, g)
		for i := range m {
			m[i] = make([]int64, g)
		}
		return m
	}
	u := usage{global: mk(), host: mk(), peer: mk()}
	fm.tally(&u, -1)
	comm.Run(fm.global, func(c *comm.Comm) {
		r := c.Rank()
		fn(c, fm.host[r/l][r%l], fm.peer[r%l][r/l])
	})
	fm.tally(&u, +1)
	e.fam = fm
	return u
}
