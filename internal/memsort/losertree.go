package memsort

import "math"

// infKey is the sentinel larger than every real key; exhausted loser-tree
// lanes carry it.  Real inputs must not contain MaxInt64 (the public facade
// documents and enforces this).
const infKey = math.MaxInt64

// LoserTree merges k sorted lanes with ⌈log₂ k⌉ comparisons per emitted key.
// It is the kernel of every one-pass k-way merge phase in the repository
// (the (l,m)-merge's group merges, multiway merge sort, and the k-way merge
// ablation).
type LoserTree struct {
	k     int
	tree  []int // internal nodes: lane index of the loser at that node
	lanes [][]int64
	pos   []int
	heads []int64
}

// NewLoserTree builds a loser tree over the given sorted lanes.  Empty lanes
// are allowed.
func NewLoserTree(lanes [][]int64) *LoserTree {
	k := len(lanes)
	if k == 0 {
		k = 1
	}
	t := &LoserTree{
		k:     k,
		tree:  make([]int, k),
		lanes: lanes,
		pos:   make([]int, k),
		heads: make([]int64, k),
	}
	for i := range t.heads {
		t.heads[i] = infKey
		if i < len(lanes) && len(lanes[i]) > 0 {
			t.heads[i] = lanes[i][0]
		}
	}
	t.build()
	return t
}

// build initializes the loser tree by playing every lane up the tree.
func (t *LoserTree) build() {
	for i := range t.tree {
		t.tree[i] = -1
	}
	for lane := 0; lane < t.k; lane++ {
		t.replay(lane)
	}
}

// replay pushes lane up from its leaf, recording losers, leaving the overall
// winner at tree[0].
func (t *LoserTree) replay(lane int) {
	winner := lane
	for node := (lane + t.k) / 2; node >= 1; node /= 2 {
		if t.tree[node] == -1 {
			t.tree[node] = winner
			return
		}
		if t.heads[t.tree[node]] < t.heads[winner] ||
			(t.heads[t.tree[node]] == t.heads[winner] && t.tree[node] < winner) {
			winner, t.tree[node] = t.tree[node], winner
		}
	}
	t.tree[0] = winner
}

// Empty reports whether all lanes are exhausted.
func (t *LoserTree) Empty() bool {
	return t.heads[t.tree[0]] == infKey
}

// Pop removes and returns the smallest head.  Ties resolve to the
// lowest-numbered lane, making the merge stable in lane order.
func (t *LoserTree) Pop() int64 {
	w := t.tree[0]
	v := t.heads[w]
	t.pos[w]++
	if w < len(t.lanes) && t.pos[w] < len(t.lanes[w]) {
		t.heads[w] = t.lanes[w][t.pos[w]]
	} else {
		t.heads[w] = infKey
	}
	t.sift(w)
	return v
}

// PopRun pops a maximal run of consecutive keys from the current winning lane
// into dst and returns how many it emitted (at least 1; at most len(dst)).
// It is the galloping fast path of the loser tree: one walk up the winner's
// root path finds the runner-up — the best head among all other lanes — and a
// gallop search (exponential + binary) finds how far the winner's lane stays
// below that bound, so a run of r keys costs O(log r) comparisons plus a bulk
// copy instead of r sifts.  The tie rule matches sift: the winner's lane may
// emit keys equal to the runner-up's head only when its lane index is lower.
func (t *LoserTree) PopRun(dst []int64) int {
	if len(dst) == 0 {
		return 0
	}
	w := t.tree[0]
	var lane []int64
	if w < len(t.lanes) && t.pos[w] < len(t.lanes[w]) {
		lane = t.lanes[w][t.pos[w]:]
	}
	if len(lane) == 0 {
		// Exhausted (or padding) lane: behave like Pop and emit the sentinel.
		dst[0] = t.heads[w]
		t.sift(w)
		return 1
	}
	ru := -1
	for node := (w + t.k) / 2; node >= 1; node /= 2 {
		l := t.tree[node]
		if ru == -1 || t.heads[l] < t.heads[ru] ||
			(t.heads[l] == t.heads[ru] && l < ru) {
			ru = l
		}
	}
	n := len(lane)
	if ru >= 0 {
		if w < ru {
			n = gallopLessEq(lane, t.heads[ru])
		} else {
			n = gallopLess(lane, t.heads[ru])
		}
	}
	if n > len(dst) {
		n = len(dst)
	}
	if n < 1 {
		n = 1 // the winner's own head always beats the runner-up
	}
	copy(dst[:n], lane[:n])
	t.pos[w] += n
	if t.pos[w] < len(t.lanes[w]) {
		t.heads[w] = t.lanes[w][t.pos[w]]
	} else {
		t.heads[w] = infKey
	}
	t.sift(w)
	return n
}

// sift replays lane w against the losers on its root path after its head
// changed.
func (t *LoserTree) sift(lane int) {
	winner := lane
	for node := (lane + t.k) / 2; node >= 1; node /= 2 {
		loser := t.tree[node]
		if t.heads[loser] < t.heads[winner] ||
			(t.heads[loser] == t.heads[winner] && loser < winner) {
			winner, t.tree[node] = loser, winner
		}
	}
	t.tree[0] = winner
}

// MultiMerge merges the sorted lanes into dst, which must have length equal
// to the total lane length.  For k ≤ 2 it falls back to copy/MergeBinary.
func MultiMerge(dst []int64, lanes [][]int64) {
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	if len(dst) != total {
		panic("memsort: MultiMerge destination size mismatch")
	}
	switch len(lanes) {
	case 0:
		return
	case 1:
		copy(dst, lanes[0])
		return
	case 2:
		MergeBinary(dst, lanes[0], lanes[1])
		return
	}
	t := NewLoserTree(lanes)
	for i := 0; i < len(dst); {
		i += t.PopRun(dst[i:])
	}
}

// MultiMergeBinary merges k sorted lanes by repeated pairwise binary merging
// (⌈log₂ k⌉ rounds over the data).  It exists as the baseline for the
// loser-tree ablation (A4 of go run ./cmd/experiments): identical output,
// more key moves.
func MultiMergeBinary(dst []int64, lanes [][]int64) {
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	if len(dst) != total {
		panic("memsort: MultiMergeBinary destination size mismatch")
	}
	if len(lanes) == 0 {
		return
	}
	cur := make([][]int64, len(lanes))
	for i, l := range lanes {
		cur[i] = append([]int64(nil), l...)
	}
	for len(cur) > 1 {
		next := cur[:0:0]
		for i := 0; i+1 < len(cur); i += 2 {
			merged := make([]int64, len(cur[i])+len(cur[i+1]))
			MergeBinary(merged, cur[i], cur[i+1])
			next = append(next, merged)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	copy(dst, cur[0])
}
