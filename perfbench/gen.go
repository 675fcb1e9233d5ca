package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
)

// Dimensions shared by every workload: IND records with d attributes, so
// query regions live in the reduced d−1 preference domain; top-k depths run
// 1..maxK.
const (
	dims = 4
	maxK = 10
)

// box is an axis-aligned query region in the reduced preference domain.
type box struct {
	lo, hi []float64
}

// simplexBox draws a σ-sided box whose corner is uniform on the reduced
// simplex, scaled so the whole box stays inside it (the same placement the
// paper's synthetic experiments use).
func simplexBox(rng *rand.Rand, dim int, sigma float64) box {
	raw := make([]float64, dim+1)
	sum := 0.0
	for i := range raw {
		raw[i] = rng.ExpFloat64()
		sum += raw[i]
	}
	alpha := 1 - float64(dim)*sigma - 0.01
	b := box{lo: make([]float64, dim), hi: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		b.lo[i] = raw[i] / sum * alpha
		b.hi[i] = b.lo[i] + sigma
	}
	return b
}

// nestedBox draws a σ-sided box uniformly placed inside parent.
func nestedBox(rng *rand.Rand, parent box, sigma float64) box {
	b := box{lo: make([]float64, len(parent.lo)), hi: make([]float64, len(parent.lo))}
	for i := range parent.lo {
		slack := parent.hi[i] - parent.lo[i] - sigma
		b.lo[i] = parent.lo[i] + rng.Float64()*slack
		b.hi[i] = b.lo[i] + sigma
	}
	return b
}

// query is one generated UTK request with its pre-encoded body.
type query struct {
	utk2   bool
	k      int
	region box
	body   []byte
}

func (q *query) path() string {
	if q.utk2 {
		return "/utk2/" + datasetName
	}
	return "/utk1/" + datasetName
}

func encodeQuery(k int, b box) []byte {
	body, err := json.Marshal(map[string]any{"k": k, "region": map[string]any{"lo": b.lo, "hi": b.hi}})
	if err != nil {
		panic(err) // plain floats and ints always encode
	}
	return body
}

// regionSource picks the region of the next query.
type regionSource interface {
	next(rng *rand.Rand) box
}

// uniqueRegions draws a fresh σ=0.01 box per query, so no region repeats
// and every query misses the result cache.
type uniqueRegions struct{}

func (uniqueRegions) next(rng *rand.Rand) box { return simplexBox(rng, dims-1, 0.01) }

// Shape of the hot region set: parents σ=0.01, each with nested σ=0.005
// children, drawn by Zipf(s=1.1) over all regions.
const (
	hotParents  = 16
	hotChildren = 3
	parentSigma = 0.01
	childSigma  = 0.005
	zipfS       = 1.1
)

// hotRegions is a fixed set of parent boxes with nested children, drawn by a
// Zipf law whose rank order is a shuffle of the set. The set and its rank
// order come from regionSeed; only the draws come from the workload seed.
type hotRegions struct {
	boxes []box
	zipf  *rand.Zipf
}

func newHotRegions(draws *rand.Rand) *hotRegions {
	rng := rand.New(rand.NewSource(regionSeed))
	var boxes []box
	for p := 0; p < hotParents; p++ {
		parent := simplexBox(rng, dims-1, parentSigma)
		boxes = append(boxes, parent)
		for c := 0; c < hotChildren; c++ {
			boxes = append(boxes, nestedBox(rng, parent, childSigma))
		}
	}
	rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
	return &hotRegions{boxes: boxes, zipf: rand.NewZipf(draws, zipfS, 1, uint64(len(boxes)-1))}
}

func (h *hotRegions) next(*rand.Rand) box { return h.boxes[h.zipf.Uint64()] }

// querySeq is a workload's query list: an endless sequence fixed by the
// seed, generated lazily so a run uses exactly the prefix it has time for.
// Item i is the same whichever client asks for it first.
type querySeq struct {
	mu        sync.Mutex
	rng       *rand.Rand
	regions   regionSource
	utk2Every int // every utk2Every-th query (in expectation) is UTK2
	items     []*query
	poll      *query // with regionsPoll, every query
}

// Region sets a workload's queries draw from.
const (
	regionsUnique = iota // a fresh σ=0.01 box per query
	regionsHot           // the nested Zipf set
	regionsPoll          // one fixed question, polled
)

// regionSeed fixes the hot region set and the polled box, the same for every
// workload seed, as recordSeed fixes the records. Which boxes a set holds
// decides how costly its recomputations are, and moved the query p99 between
// seeds by more than run-to-run noise; the workload seed varies the draws
// over the set, the depths and the variants.
const regionSeed = 1

func newQuerySeq(seed int64, regions, utk2Every int) *querySeq {
	rng := rand.New(rand.NewSource(seed))
	var src regionSource = uniqueRegions{}
	switch regions {
	case regionsHot:
		src = newHotRegions(rng)
	case regionsPoll:
		// A dashboard's question: the top-10 UTK1 answer for one box. Its
		// cached answer lasts until the next update that changes the band.
		b := simplexBox(rand.New(rand.NewSource(regionSeed)), dims-1, 0.01)
		return &querySeq{poll: &query{k: maxK, region: b, body: encodeQuery(maxK, b)}}
	}
	return &querySeq{rng: rng, regions: src, utk2Every: utk2Every}
}

// at returns query i, generating the sequence up to it.
func (s *querySeq) at(i int) *query {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i && s.poll != nil {
		s.items = append(s.items, s.poll)
	}
	for len(s.items) <= i {
		q := &query{k: 1 + s.rng.Intn(maxK), utk2: s.rng.Intn(s.utk2Every) == 0}
		q.region = s.regions.next(s.rng)
		q.body = encodeQuery(q.k, q.region)
		s.items = append(s.items, q)
	}
	return s.items[i]
}

// batch is one generated update batch: deletes apply before inserts. ids
// are the ids the server will assign to the inserts, which a single writer
// applying batches in order can predict exactly.
type batch struct {
	deletes []int
	inserts [][]float64
	ids     []int
	body    []byte
}

// deepHi bounds the attributes of a deep insert: a record in [0,0.5]^d is
// dominated by thousands of others in any workload's dataset, so it can
// never enter the top-k band. It prices the update path without moving the
// band or invalidating a cached answer.
const deepHi = 0.5

// batchSeq is a workload's update list, fixed by the seed. Every
// churnEvery-th batch (none when 0) is a churn batch; the others each insert
// one deep record. A churn batch inserts records uniform in [0,1]^d, except
// that every nearTopEvery-th one (if positive) lands in [0.9,1]^d, where it
// enters the top-k band. Its deletes either walk a seeded permutation of the
// initial record ids or, when deleteLag is positive, remove the records the
// churn batch deleteLag churn batches earlier inserted, so the band changes
// by the same amount in every batch.
type batchSeq struct {
	mu           sync.Mutex
	rng          *rand.Rand
	victims      []int
	churnEvery   int
	deletes      int
	inserts      int
	nearTopEvery int
	deleteLag    int
	nextID       int
	churnIDs     [][]int
	inserted     int
	items        []*batch
}

func newBatchSeq(seed int64, n int, w workload) *batchSeq {
	rng := rand.New(rand.NewSource(seed))
	return &batchSeq{rng: rng, victims: rng.Perm(n), churnEvery: w.churnEvery,
		deletes: w.deletes, inserts: w.inserts, nearTopEvery: w.nearTopEvery,
		deleteLag: w.deleteLag, nextID: n}
}

func (s *batchSeq) insert(b *batch, lo, hi float64) {
	rec := make([]float64, dims)
	for d := range rec {
		rec[d] = lo + (hi-lo)*s.rng.Float64()
	}
	b.inserts = append(b.inserts, rec)
	b.ids = append(b.ids, s.nextID)
	s.nextID++
}

// at returns batch i, generating the sequence up to it. It fails once the
// initial records are exhausted as delete victims.
func (s *batchSeq) at(i int) (*batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i {
		j := len(s.items)
		b := &batch{}
		if s.churnEvery > 0 && j%s.churnEvery == s.churnEvery-1 {
			c := len(s.churnIDs)
			switch {
			case s.deleteLag > 0:
				if c >= s.deleteLag {
					b.deletes = s.churnIDs[c-s.deleteLag]
				}
			case (c+1)*s.deletes > len(s.victims):
				return nil, fmt.Errorf("batch %d: delete victims exhausted", j)
			default:
				b.deletes = s.victims[c*s.deletes : (c+1)*s.deletes]
			}
			for k := 0; k < s.inserts; k++ {
				lo := 0.0
				if s.nearTopEvery > 0 && s.inserted%s.nearTopEvery == s.nearTopEvery-1 {
					lo = 0.9
				}
				s.insert(b, lo, 1)
				s.inserted++
			}
			s.churnIDs = append(s.churnIDs, b.ids)
		} else {
			s.insert(b, 0, deepHi)
		}
		body, err := json.Marshal(map[string]any{"delete": b.deletes, "insert": b.inserts})
		if err != nil {
			return nil, err
		}
		b.body = body
		s.items = append(s.items, b)
	}
	return s.items[i], nil
}
