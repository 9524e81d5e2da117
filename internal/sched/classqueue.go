package sched

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Item is a queued unit of work for the ClassQueue. The fields are ordered so
// that what a scan or a re-index reads per item — the rank inputs and the
// removed flag — shares the item's first cache line.
type Item struct {
	ID       string
	Class    Class
	Enqueued time.Duration
	// ExpectedQPU is the declared or estimated time the item will hold the
	// QPU — the "expected time running on the QC hardware" hint the paper
	// proposes for planning interleaving (§3.5). Zero means unknown.
	ExpectedQPU time.Duration
	// Deadline is the absolute sim time by which the item should finish
	// (submission time plus the job's relative deadline). Zero means the
	// item carries no deadline; urgency-aware priority policies fall back
	// to per-class defaults.
	Deadline time.Duration

	// removed marks an item taken out of its queue. Extraction flags the
	// item instead of searching for its entries: the push-order list, the
	// oldest-heap and the rank index drop flagged entries when they surface,
	// and are rebuilt from the live items once flagged entries outnumber
	// them 4:1 (see took). An Item therefore cannot be pushed twice: Push
	// rejects it, and the daemon allocates a fresh Item per (re)queue.
	removed bool
	// seq is the item's push sequence number within its queue: the last
	// tie-break of every rank, so equal keys pop in push order. Zero until
	// the item is pushed.
	seq uint64

	// Payload is opaque to the queue (the daemon stores its job record).
	Payload any
	Pattern Pattern
}

// ShortestExpectedFirst is a PopBy comparator implementing the paper's
// duration-hint scheduling: within a class, the item expected to hold the
// QPU for the shortest time runs first, which minimizes mean wait for the
// same total work. Items without a hint (zero) sort last; ties fall back to
// FIFO. Class priority is enforced by PopBy itself, so production work is
// never delayed by this ordering.
func ShortestExpectedFirst(a, b *Item) bool {
	ae, be := a.ExpectedQPU, b.ExpectedQPU
	if ae <= 0 {
		ae = 1<<63 - 1
	}
	if be <= 0 {
		be = 1<<63 - 1
	}
	if ae != be {
		return ae < be
	}
	return a.Enqueued < b.Enqueued
}

// ShortestExpectedKey states ShortestExpectedFirst as a Ranker.Ord key: the
// duration hint (unknown sorts last), then the enqueue time.
func ShortestExpectedKey(it *Item) [2]int64 {
	e := int64(it.ExpectedQPU)
	if e <= 0 {
		e = math.MaxInt64
	}
	return [2]int64{e, int64(it.Enqueued)}
}

// Ranker states an item's within-class rank as exact integers the queue can
// index. Lower sorts first, compared in this order: Pri, then the live
// weight of the item's Lane, then Ord, then push sequence — so a Ranker with
// no fields set is plain push order. A nil field contributes nothing.
//
// Each function is called once per item (at Push on a queue that has adopted
// the ranker, or when PopRanked adopts it), under the queue lock: it must be
// fast, must not call back into the queue, and must depend only on fields
// that do not change while the item is queued. Anything that does change —
// fair-share's per-user served QPU-seconds — belongs in the lane weight,
// which PopRanked reads afresh at every pop. A queue tells rankers apart by
// pointer, so build one per policy instance, not one per pop.
type Ranker struct {
	// Pri is the priority-axis key, e.g. deadline − expected service for
	// least-slack-first (the common `now` cancels out of the comparison).
	Pri func(it *Item) int64
	// Lane names the item's lane — fair-share: its owner. Items of one lane
	// share one weight, so only lane heads compete at pop time.
	Lane func(it *Item) string
	// Ord is the order-axis key.
	Ord func(it *Item) [2]int64
}

// rankEntry is one item's place in the rank index: its keys, computed once.
type rankEntry struct {
	pri int64
	ord [2]int64
	seq uint64
	it  *Item
}

func ordLess(a, b [2]int64) bool {
	return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
}

// rankBefore orders entries of one lane, whose weight is common.
func rankBefore(a, b *rankEntry) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if a.ord != b.ord {
		return ordLess(a.ord, b.ord)
	}
	return a.seq < b.seq
}

// headBefore orders the heads of two lanes: the lanes' weights rank between
// the priority key and the order key.
func headBefore(a *rankEntry, wa float64, b *rankEntry, wb float64) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if wa != wb {
		return wa < wb
	}
	return rankBefore(a, b)
}

// lane is a min-heap of the rank entries sharing one Ranker.Lane name (all
// of a class, under a ranker without lanes).
type lane struct {
	name string
	h    []rankEntry
}

func olderItem(a, b **Item) bool { return (*a).Enqueued < (*b).Enqueued }

// heapPush and heapPop maintain a 4-ary min-heap under before: half the
// levels of a binary heap, and a node's children sit on adjacent cache lines,
// which is worth a third of a pop's cost at backlog 10⁵ (EXPERIMENTS.md
// h-backlog-flat).
func heapPush[T any](h *[]T, x T, before func(a, b *T) bool) {
	s := append(*h, x)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 4
		if !before(&s[i], &s[parent]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func heapPop[T any](h *[]T, before func(a, b *T) bool) {
	s := *h
	n := len(s) - 1
	var zero T
	s[0], s[n] = s[n], zero
	s = s[:n]
	*h = s
	for i := 0; ; {
		small := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if before(&s[c], &s[small]) {
				small = c
			}
		}
		if small == i {
			return
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}

// classQ is one class's backlog: the push-order list every path shares, and
// two indexes over it.
type classQ struct {
	// items[head:] holds the live items in push order, plus flagged
	// leftovers of middle extractions; Pop advances head and slides the
	// window back down once half the slice is behind it, so a steady-depth
	// FIFO never reallocates. live counts the unflagged items; qpu is their
	// summed ExpectedQPU, so the queue-drain estimate behind Retry-After
	// hints is an O(1) read.
	items []*Item
	head  int
	live  int
	qpu   time.Duration
	// oldest is a min-heap over Enqueued: ClassLoads reads the head, which
	// makes the admission stage's bulk load view O(classes).
	oldest []*Item
	// lanes is the rank index for the queue's adopted Ranker, ranked its
	// entry count (flagged ones included). An empty lane is kept — it holds
	// its heap's capacity for the owner's next job — until empty lanes
	// outgrow the occupied ones (see reindex).
	lanes  []*lane
	byLane map[string]*lane
	ranked int
}

// ClassQueue is a three-class priority queue: class priority between
// classes, and within a class whichever order the caller pops by — push
// order (Pop), an indexed Ranker (PopRanked), or a linear scan under an
// arbitrary comparator or score (PopBy, PopByScore).
type ClassQueue struct {
	mu      sync.Mutex
	classes [ClassProduction + 1]classQ
	// ranker is the Ranker the lanes are built for: adopted by the first
	// PopRanked that names it, kept current by Push from then on.
	ranker *Ranker
	seq    uint64
}

// NewClassQueue returns an empty queue.
func NewClassQueue() *ClassQueue { return &ClassQueue{} }

// Push enqueues an item.
func (q *ClassQueue) Push(it *Item) error {
	if it == nil || it.ID == "" {
		return errors.New("sched: queue item needs an ID")
	}
	if it.Class < ClassDev || it.Class > ClassProduction {
		return fmt.Errorf("sched: invalid class %d", it.Class)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if it.seq != 0 {
		return fmt.Errorf("sched: item %s was queued before (push a fresh Item per requeue)", it.ID)
	}
	q.seq++
	it.seq = q.seq
	c := &q.classes[it.Class]
	c.items = append(c.items, it)
	c.live++
	c.qpu += it.ExpectedQPU
	heapPush(&c.oldest, it, olderItem)
	if q.ranker != nil {
		c.rank(q.ranker, it)
	}
	return nil
}

// rank computes the item's keys under r and files it in its lane.
func (c *classQ) rank(r *Ranker, it *Item) {
	e := rankEntry{seq: it.seq, it: it}
	if r.Pri != nil {
		e.pri = r.Pri(it)
	}
	if r.Ord != nil {
		e.ord = r.Ord(it)
	}
	name := ""
	if r.Lane != nil {
		name = r.Lane(it)
	}
	ln := c.byLane[name]
	if ln == nil {
		ln = &lane{name: name}
		if c.byLane == nil {
			c.byLane = make(map[string]*lane)
		}
		c.byLane[name] = ln
		c.lanes = append(c.lanes, ln)
	}
	heapPush(&ln.h, e, rankBefore)
	c.ranked++
}

// reindex rebuilds the lanes from the live items, and sheds the empty lanes
// once they outnumber the occupied ones past the queue's one overgrowth
// bound.
func (c *classQ) reindex(r *Ranker) {
	for _, ln := range c.lanes {
		clear(ln.h)
		ln.h = ln.h[:0]
	}
	c.ranked = 0
	for _, it := range c.items[c.head:] {
		if !it.removed {
			c.rank(r, it)
		}
	}
	occupied := 0
	for _, ln := range c.lanes {
		if len(ln.h) > 0 {
			occupied++
		}
	}
	if !overgrown(len(c.lanes), occupied) {
		return
	}
	kept := c.lanes[:0]
	for _, ln := range c.lanes {
		if len(ln.h) > 0 {
			kept = append(kept, ln)
		} else {
			delete(c.byLane, ln.name)
		}
	}
	clear(c.lanes[len(kept):])
	c.lanes = kept
}

// overgrown is the queue's one compaction bound: a structure of n entries is
// rebuilt once it exceeds 4× the live entries it serves (+64).
func overgrown(n, live int) bool { return n > 4*live+64 }

// took accounts for an extracted item. Extraction never searches the list
// or the heaps for the item's other entries: it flags the item, and this —
// the one compaction rule — rebuilds all three from the live items once any
// of them is overgrown, which keeps every structure O(backlog) at amortized
// O(1) per extraction.
func (q *ClassQueue) took(c *classQ, it *Item) {
	it.removed = true
	c.live--
	c.qpu -= it.ExpectedQPU
	if !overgrown(max(len(c.items)-c.head, len(c.oldest), c.ranked), c.live) {
		return
	}
	c.squeeze()
	clear(c.oldest)
	c.oldest = c.oldest[:0]
	for _, it := range c.items {
		heapPush(&c.oldest, it, olderItem)
	}
	if q.ranker != nil {
		c.reindex(q.ranker)
	}
}

// squeeze closes the push-order list up over its flagged leftovers.
func (c *classQ) squeeze() {
	live := c.items[:0]
	for _, it := range c.items[c.head:] {
		if !it.removed {
			live = append(live, it)
		}
	}
	clear(c.items[len(live):])
	c.items, c.head = live, 0
}

// front drops flagged items off the head of the push-order list and returns
// the first live one. The class must be non-empty (live > 0).
func (c *classQ) front() *Item {
	for c.items[c.head].removed {
		c.shift()
	}
	return c.items[c.head]
}

// shift drops the head of the push-order list.
func (c *classQ) shift() {
	c.items[c.head] = nil
	c.head++
	if c.head >= 32 && 2*c.head >= len(c.items) {
		n := copy(c.items, c.items[c.head:])
		clear(c.items[n:])
		c.items, c.head = c.items[:n], 0
	}
}

// top returns the highest non-empty class, or nil when the queue is empty.
func (q *ClassQueue) top() *classQ {
	for c := ClassProduction; c >= ClassDev; c-- {
		if q.classes[c].live > 0 {
			return &q.classes[c]
		}
	}
	return nil
}

// Pop removes and returns the highest-priority item in push order, or nil
// when empty.
func (q *ClassQueue) Pop() *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := q.top()
	if c == nil {
		return nil
	}
	it := c.front()
	c.shift()
	q.took(c, it)
	return it
}

// PopRanked removes and returns the first item of the highest non-empty
// class under r — the indexed extraction every built-in order × priority
// combination dispatches through. weight supplies the lanes' live weights
// (fair-share: QPU-seconds served per user; a missing lane weighs 0) and is
// read once per non-empty lane, so a pop costs O(lanes + log backlog) with
// no per-item call. The queue adopts r on first sight — one O(backlog)
// indexing pass — and Push keeps the index current from then on; a nil or
// empty ranker is push order, which the list already is.
//
// The pop sequence equals the linear reference — PopByScore of −Pri, ties to
// the lighter lane, then the lower Ord, then the earlier push — wherever
// float64 scores resolve the keys (DESIGN §5, INV-Q1).
func (q *ClassQueue) PopRanked(r *Ranker, weight map[string]float64) *Item {
	if r == nil || (r.Pri == nil && r.Lane == nil && r.Ord == nil) {
		return q.Pop()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ranker != r {
		q.ranker = r
		for c := range q.classes {
			q.classes[c].reindex(r)
		}
	}
	c := q.top()
	if c == nil {
		return nil
	}
	var best *lane
	var bestWeight float64
	for _, ln := range c.lanes {
		for len(ln.h) > 0 && ln.h[0].it.removed {
			heapPop(&ln.h, rankBefore)
			c.ranked--
		}
		if len(ln.h) == 0 {
			continue
		}
		w := weight[ln.name]
		if best == nil || headBefore(&ln.h[0], w, &best.h[0], bestWeight) {
			best, bestWeight = ln, w
		}
	}
	it := best.h[0].it
	heapPop(&best.h, rankBefore)
	c.ranked--
	q.took(c, it)
	return it
}

// popScan is the linear extraction behind PopBy and PopByScore — the
// fallback for comparators and scores the queue cannot index. Over the
// highest non-empty class it takes the maximum-score item (score nil: all
// equal), ties to the minimum under less (nil, or equal again: the earlier
// queued). The scan is O(backlog) whatever happens next, so unlike the
// indexed paths it closes the list over the extracted item at once — one
// memmove — and the list it walks stays dense, with no flags to test.
func (q *ClassQueue) popScan(score func(it *Item) float64, less func(a, b *Item) bool) *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := q.top()
	if c == nil {
		return nil
	}
	if len(c.items)-c.head > c.live {
		c.squeeze() // leftovers of indexed pops or Remove
	}
	items := c.items[c.head:]
	best := 0
	if score == nil {
		for i := 1; i < len(items); i++ {
			if less(items[i], items[best]) {
				best = i
			}
		}
	} else {
		bestScore := score(items[0])
		for i := 1; i < len(items); i++ {
			s := score(items[i])
			if s > bestScore || (s == bestScore && less != nil && less(items[i], items[best])) {
				best, bestScore = i, s
			}
		}
	}
	it := items[best]
	copy(items[best:], items[best+1:])
	items[len(items)-1] = nil
	c.items = c.items[:len(c.items)-1]
	q.took(c, it)
	return it
}

// PopBy removes and returns an item from the highest non-empty class,
// choosing the minimum under less (stable: the earlier-queued item wins
// ties). It is the O(backlog) path for custom comparators; orders the queue
// can index go through PopRanked.
func (q *ClassQueue) PopBy(less func(a, b *Item) bool) *Item {
	if less == nil {
		return q.Pop()
	}
	return q.popScan(nil, less)
}

// PopByScore removes and returns the maximum-score item from the highest
// non-empty class: score orders items within a class, ties fall to tie
// (nil, or equal again: the earlier-queued item wins, so equal-score pops
// degrade to exactly the order Pop would give). Score is called once per
// queued item of the winning class under the queue lock, so it must be fast
// and must not call back into the queue. It is the O(backlog) path for
// priority policies that can only score; see PopRanked.
func (q *ClassQueue) PopByScore(score func(it *Item) float64, tie func(a, b *Item) bool) *Item {
	if score == nil {
		return q.PopBy(tie)
	}
	return q.popScan(score, tie)
}

// Peek returns the item Pop would remove, without removing it.
func (q *ClassQueue) Peek() *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	if c := q.top(); c != nil {
		return c.front()
	}
	return nil
}

// Remove deletes an item by ID, reporting whether it was present.
func (q *ClassQueue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for c := range q.classes {
		for _, it := range q.classes[c].items[q.classes[c].head:] {
			if it.ID == id && !it.removed {
				q.took(&q.classes[c], it)
				return true
			}
		}
	}
	return false
}

// Len returns the total queued count.
func (q *ClassQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for c := range q.classes {
		n += q.classes[c].live
	}
	return n
}

// ClassLoads snapshots every class's queued count, earliest Enqueued time
// and summed queued ExpectedQPU under a single lock acquisition — the bulk
// read behind the admission stage's fleet load view. has[c] reports whether
// class c has any backlog (oldest[c] is meaningful only then). Counts and
// QPU sums are O(1) reads; the earliest Enqueued is the head of the
// per-class oldest-heap once flagged heads are dropped, so the cost per call
// is O(classes) plus amortized O(log n) per item ever removed.
func (q *ClassQueue) ClassLoads() (counts [ClassProduction + 1]int, oldest [ClassProduction + 1]time.Duration, has [ClassProduction + 1]bool, qpu [ClassProduction + 1]time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for c := range q.classes {
		cq := &q.classes[c]
		counts[c] = cq.live
		qpu[c] = cq.qpu
		for len(cq.oldest) > 0 && cq.oldest[0].removed {
			heapPop(&cq.oldest, olderItem)
		}
		if len(cq.oldest) > 0 {
			has[c] = true
			oldest[c] = cq.oldest[0].Enqueued
		}
	}
	return counts, oldest, has, qpu
}

// LenClass returns the queued count for one class.
func (q *ClassQueue) LenClass(c Class) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if c < ClassDev || c > ClassProduction {
		return 0
	}
	return q.classes[c].live
}
