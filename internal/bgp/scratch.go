package bgp

import (
	"spooftrack/internal/topo"
)

// propScratch is the per-propagation working state. Everything in it is
// sized once for the engine's topology and recycled through the engine's
// sync.Pool, so a steady stream of Propagate calls allocates nothing
// beyond each Outcome's selection array.
//
// The queue is a fixed-capacity ring buffer: the queued bitmap
// deduplicates enqueues, so at most NumASes entries are ever pending and
// the ring can never overflow or grow (unlike the reslice-FIFO it
// replaces, whose backing array crept forward on every pop).
//
// The visit array memoizes next-hop chain walks within one decision
// event (see chainInfo) in one word per AS: the event's epoch and the two
// memoized answers. Stamping with a monotonically increasing epoch makes
// "reset" free.
type propScratch struct {
	queue  []int32 // ring buffer of dense AS indices, capacity NumASes
	qhead  int
	qlen   int
	queued []bool // intrusive membership bitmap for the ring

	epoch uint64
	// visit[h] is epoch<<2 | tgt<<1 | t1 once event epoch has walked h:
	// tgt tells whether the chain from h reaches the event's target, t1
	// whether it contains a tier-1.
	visit []uint64
	stack []int32 // chain-walk scratch

	seeds []int // initial enqueue order scratch

	// direct[i] is true when the configuration announces directly to AS i
	// (i is a link provider with an active announcement). The decision
	// loop scans cfg.Anns only for these few ASes instead of on every
	// event.
	direct []bool

	// sendClass[i] caches trueClass(i, sel[i]) and is refreshed whenever
	// sel[i] changes, turning the per-offer export-class computation into
	// an array read. Entries are only consulted for ASes with a valid
	// selection. The array is NOT pooled: each propagation aliases it to
	// its Outcome's sendCls so the final classes persist with the outcome
	// (PropagateDeltaInfo carries them with one copy), and putScratch drops
	// the alias.
	sendClass []int8

	// deltaSeed marks extra seeds the delta propagator computes before its
	// carry-over pass (poison-toggled ASes, announcement providers,
	// improvement-frontier neighbors). The delta path clears every bit it
	// sets before the scratch is released, so the array is always all-false
	// in the pool.
	deltaSeed []bool

	// diff and work are PropagateDeltaInfo's per-call state: the
	// configuration diff and what it means for each previous
	// announcement's members. Kept here so a warm delta step allocates
	// nothing; both are overwritten in full on every use.
	diff ConfigDiff
	work []annWork

	// fresh marks a scratch that has never been through the pool: its
	// epoch stamps start from zero (an "epoch reset" in trace terms).
	// Cleared on first release.
	fresh bool

	// poisonRows holds dense per-announcement poison membership arrays
	// (each sized NumASes). Rows are handed out by buildCtx and cleared
	// sparsely (by walking the announcement's poison list) on release.
	poisonRows [][]bool

	ctx propCtx
}

// annWork is the delta path's carry work for the members of one previous
// announcement, indexed by announcement index + 1 so that the invalid
// sentinel (ann == -1) lands on the zero entry.
type annWork struct {
	shift   int32 // AS-path length shift carried routes take
	blanket bool  // re-decide every member, no prune
	prune   bool  // re-decide a member only if its runner-up now wins
	nbrs    bool  // re-decide every member's neighbors
	any     bool  // shift, blanket or prune: the member needs a look
}

// propCtx carries the per-configuration lookup tables the decision
// process needs: dense poison membership per announcement, tier-1 poison
// lists (for the route-leak filter), and community action tables.
type propCtx struct {
	// poisoned[ai] is a dense membership array over AS indices, non-nil
	// exactly when announcement ai poisons at least one AS (poisoned
	// ASNs outside the topology are represented by PathLen stuffing only
	// and can never match a receiver). Rows are borrowed from
	// propScratch.poisonRows.
	poisoned [][]bool
	// poisonTier1[ai] lists the in-topology tier-1 ASNs poisoned on ai.
	poisonTier1 [][]topo.ASN
	// annLen[ai] is cfg.Anns[ai].PathLen() as an int32, precomputed so
	// the per-event direct-offer scan does no arithmetic.
	annLen []int32
	comm   communityTables
	// anyPoison / anyComm gate the poison-row and community lookups: most
	// configurations carry neither, and a single bool spares per-offer
	// table reads.
	anyPoison bool
	anyComm   bool
}

func newPropScratch(n int) *propScratch {
	return &propScratch{
		queue:     make([]int32, n),
		queued:    make([]bool, n),
		visit:     make([]uint64, n),
		direct:    make([]bool, n),
		deltaSeed: make([]bool, n),
		fresh:     true,
	}
}

// pushQueue appends i to the ring. The caller must have checked and set
// queued[i], which bounds pending entries by the ring capacity.
func (s *propScratch) pushQueue(i int) {
	p := s.qhead + s.qlen
	if p >= len(s.queue) {
		p -= len(s.queue)
	}
	s.queue[p] = int32(i)
	s.qlen++
}

// popQueue removes and returns the oldest entry (FIFO).
func (s *propScratch) popQueue() int {
	v := s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.qhead = 0
	}
	s.qlen--
	return int(v)
}

// drainQueue empties the ring and clears the membership bitmap, leaving
// the scratch reusable after an aborted (non-converged) propagation.
func (s *propScratch) drainQueue() {
	for s.qlen > 0 {
		s.queued[s.popQueue()] = false
	}
}

// seedQueueByLen fills the (empty) ring with the collected seed indices
// ordered by carried path length, shortest first, preserving ascending
// index order within a length (stable bucket sort). Deciding upstream
// ASes before the members that route through them lets most seeds settle
// in a single decision event instead of being re-woken by a later
// upstream change. The caller has already set queued[i] for every entry.
func (s *propScratch) seedQueueByLen(sel []selection, list []int) {
	var cnt [66]int
	for _, i := range list {
		cnt[lenBucket(sel[i].pathLen)]++
	}
	pos := 0
	var off [66]int
	for b := range cnt {
		off[b] = pos
		pos += cnt[b]
	}
	n := len(s.queue)
	for _, i := range list {
		b := lenBucket(sel[i].pathLen)
		p := s.qhead + off[b]
		off[b]++
		if p >= n {
			p -= n
		}
		s.queue[p] = int32(i)
	}
	s.qlen = len(list)
}

// lenBucket clamps a carried path length into the bucket range; the top
// bucket also catches noRoute's sentinel length, ordering invalidated
// ASes after every carried route.
func lenBucket(l int32) int {
	if l < 0 {
		return 0
	}
	if l > 64 {
		return 65
	}
	return int(l)
}

// poisonRow returns the k-th dense poison membership row, allocating it
// on first use. Rows come back cleared (release zeroes the bits it set).
func (s *propScratch) poisonRow(k, n int) []bool {
	for len(s.poisonRows) <= k {
		s.poisonRows = append(s.poisonRows, make([]bool, n))
	}
	return s.poisonRows[k]
}

// chainInfo walks the acyclic next-hop chain starting at start and
// reports whether it passes through target and whether it contains a
// tier-1 AS. Results are memoized per decision event (per epoch): chains
// from a node's neighbors share suffixes, so each chain node is walked
// at most once per event instead of once per neighbor offer, making loop
// prevention and the tier-1 route-leak check O(1) amortized.
//
// When the walk terminates at target, the memoized hasT1 values along
// the walked segment may under-report tier-1s below target; that is
// sound because hasT1 is only consulted after hasTarget rejected the
// offer path, and any chain through those nodes also reaches target.
func (s *propScratch) chainInfo(sel []selection, g *topo.Graph, start, target int) (hasTarget, hasT1 bool) {
	st := s.stack[:0]
	hop := start
	stamp := s.epoch << 2
	memo := stamp // this event's stamp and the answers known so far
	for {
		if hop == -1 {
			break
		}
		if hop == target {
			memo |= 2
			break
		}
		if v := s.visit[hop]; v&^3 == stamp {
			memo = v
			break
		}
		st = append(st, int32(hop))
		hop = int(sel[hop].nextHop)
	}
	for k := len(st) - 1; k >= 0; k-- {
		h := int(st[k])
		if g.IsTier1(h) {
			memo |= 1
		}
		s.visit[h] = memo
	}
	s.stack = st[:0]
	return memo&2 != 0, memo&1 != 0
}

// getScratch takes a scratch from the engine's pool (or builds one).
func (e *Engine) getScratch() *propScratch {
	if s, ok := e.scratch.Get().(*propScratch); ok {
		return s
	}
	return newPropScratch(e.g.NumASes())
}

// putScratch cleans the scratch (drains any aborted queue state, clears
// the poison bits the configuration set, drops config-owned references)
// and returns it to the pool.
func (e *Engine) putScratch(s *propScratch, cfg Config) {
	s.drainQueue()
	for _, a := range cfg.Anns {
		s.direct[e.origin.Links[a.Link].Provider] = false
	}
	for ai, a := range cfg.Anns {
		if ai >= len(s.ctx.poisoned) {
			break
		}
		row := s.ctx.poisoned[ai]
		if row == nil {
			continue
		}
		for _, p := range a.Poison {
			if idx, ok := e.g.Index(p); ok {
				row[idx] = false
			}
		}
		s.ctx.poisoned[ai] = nil
	}
	s.ctx.comm = communityTables{}
	s.sendClass = nil // outcome-owned; see the field comment
	s.fresh = false
	e.scratch.Put(s)
}

// buildCtx fills the scratch's per-configuration tables.
func (e *Engine) buildCtx(s *propScratch, cfg Config) {
	n := e.g.NumASes()
	na := len(cfg.Anns)
	ctx := &s.ctx
	if cap(ctx.poisoned) < na {
		ctx.poisoned = make([][]bool, na)
	}
	ctx.poisoned = ctx.poisoned[:na]
	if cap(ctx.poisonTier1) < na {
		old := ctx.poisonTier1
		ctx.poisonTier1 = make([][]topo.ASN, na)
		copy(ctx.poisonTier1, old[:cap(old)])
	}
	ctx.poisonTier1 = ctx.poisonTier1[:na]
	if cap(ctx.annLen) < na {
		ctx.annLen = make([]int32, na)
	}
	ctx.annLen = ctx.annLen[:na]
	hasComm := false
	rows := 0
	for ai, a := range cfg.Anns {
		s.direct[e.origin.Links[a.Link].Provider] = true
		ctx.annLen[ai] = int32(a.PathLen())
		ctx.poisoned[ai] = nil
		ctx.poisonTier1[ai] = ctx.poisonTier1[ai][:0]
		if len(a.Communities) > 0 {
			hasComm = true
		}
		if len(a.Poison) == 0 {
			continue
		}
		row := s.poisonRow(rows, n)
		rows++
		for _, p := range a.Poison {
			if idx, ok := e.g.Index(p); ok {
				row[idx] = true
				if e.g.IsTier1(idx) {
					ctx.poisonTier1[ai] = append(ctx.poisonTier1[ai], p)
				}
			}
		}
		ctx.poisoned[ai] = row
	}
	ctx.anyPoison = rows > 0
	ctx.anyComm = hasComm
	if hasComm {
		ctx.comm = buildCommunityTables(cfg)
	} else {
		ctx.comm = communityTables{}
	}
}
