// Package features extracts the traffic-pattern features Darwin uses for
// clustering and cross-expert prediction (§4.1, Appendix A.1):
//
//	(a) average requested object size;
//	(b) the vector of the first n average inter-arrival times, where the
//	    k-th inter-arrival time of an object is the time elapsed between its
//	    k-th and (k+1)-th requests, averaged over all objects;
//	(c) the vector of the first m average stack distances, where the k-th
//	    stack distance of an object is the cumulative size of the distinct
//	    objects requested between its k-th and (k+1)-th requests, averaged
//	    over all objects.
//
// Stack distances are computed online with a Fenwick tree over request
// positions (the "tree structure" of §6.4), giving O(log n) per request. The
// extractor additionally maintains the bucketised (log-scale) size
// distribution that §4.1 appends to the feature vector to sharpen the
// cross-expert predictors.
package features

import (
	"fmt"
	"math"

	"darwin/internal/stats"
	"darwin/internal/trace"
)

// Config sets the feature vector shape.
type Config struct {
	// NumIAT is n, the number of average inter-arrival entries (paper: 7).
	NumIAT int
	// NumSD is m, the number of average stack-distance entries (paper: 7).
	NumSD int
	// SizeBuckets is the number of log-scale size-distribution buckets.
	SizeBuckets int
	// MinSize and MaxSize bound the log-scale bucket range in bytes.
	MinSize, MaxSize int64
}

// DefaultConfig returns the paper's 15-entry vector shape (1 + 7 + 7) with a
// 16-bucket size distribution spanning 64 B – 4 MB.
func DefaultConfig() Config {
	return Config{NumIAT: 7, NumSD: 7, SizeBuckets: 16, MinSize: 64, MaxSize: 4 << 20}
}

// VectorLen returns the length of the base feature vector.
func (c Config) VectorLen() int { return 1 + c.NumIAT + c.NumSD }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumIAT < 0 || c.NumSD < 0 {
		return fmt.Errorf("features: negative vector dims %d/%d", c.NumIAT, c.NumSD)
	}
	if c.SizeBuckets <= 0 {
		return fmt.Errorf("features: SizeBuckets must be > 0")
	}
	if c.MinSize < 1 || c.MaxSize <= c.MinSize {
		return fmt.Errorf("features: bad size range [%d,%d]", c.MinSize, c.MaxSize)
	}
	return nil
}

// objState tracks one object's occurrence count, last position/time.
type objState struct {
	count    int
	lastPos  int
	lastTime int64
	size     int64
}

// Extractor accumulates features over a request stream. Per-object state is
// stored by value so tracking a new object costs one map store, not a heap
// allocation.
type Extractor struct {
	cfg     Config
	objects map[uint64]objState
	tree    *stats.Fenwick
	raw     []int64 // per-position sizes currently in the tree (for regrow)
	pos     int

	totalBytes int64
	requests   int64

	iatSum   []float64
	iatCount []int64
	sdSum    []float64
	sdCount  []int64

	sizeHist *stats.Histogram // over log2(size)
}

// NewExtractor builds an extractor; cfg must validate.
func NewExtractor(cfg Config) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Extractor{
		cfg:      cfg,
		objects:  make(map[uint64]objState),
		tree:     stats.NewFenwick(1024),
		raw:      make([]int64, 1024),
		iatSum:   make([]float64, cfg.NumIAT),
		iatCount: make([]int64, cfg.NumIAT),
		sdSum:    make([]float64, cfg.NumSD),
		sdCount:  make([]int64, cfg.NumSD),
		sizeHist: stats.NewHistogram(math.Log2(float64(cfg.MinSize)), math.Log2(float64(cfg.MaxSize)), cfg.SizeBuckets),
	}, nil
}

// Observe incorporates one request.
func (e *Extractor) Observe(r trace.Request) {
	e.grow()
	e.requests++
	e.totalBytes += r.Size
	if r.Size > 0 {
		e.sizeHist.Add(math.Log2(float64(r.Size)))
	} else {
		e.sizeHist.Add(math.Log2(float64(e.cfg.MinSize)))
	}

	st, ok := e.objects[r.ID]
	if !ok {
		st.lastPos = -1
	}
	if st.lastPos >= 0 {
		gap := st.count // 1-indexed gap number: between count-th and (count+1)-th request
		if gap >= 1 && gap <= e.cfg.NumIAT {
			e.iatSum[gap-1] += float64(r.Time - st.lastTime)
			e.iatCount[gap-1]++
		}
		if gap >= 1 && gap <= e.cfg.NumSD {
			// Distinct-object bytes requested strictly between the two
			// occurrences: tree positions (lastPos, pos).
			d := e.tree.RangeSum(st.lastPos+1, e.pos-1)
			e.sdSum[gap-1] += float64(d)
			e.sdCount[gap-1]++
		}
		// Move the object's tree mass to the new position.
		e.tree.Add(st.lastPos, -st.size)
		e.raw[st.lastPos] = 0
	}
	st.count++
	st.lastPos = e.pos
	st.lastTime = r.Time
	st.size = r.Size
	e.objects[r.ID] = st
	e.tree.Add(e.pos, r.Size)
	e.raw[e.pos] = r.Size
	e.pos++
}

// grow doubles the Fenwick tree when position space runs out.
func (e *Extractor) grow() {
	if e.pos < e.tree.Len() {
		return
	}
	newLen := e.tree.Len() * 2
	nt := stats.NewFenwick(newLen)
	nraw := make([]int64, newLen)
	copy(nraw, e.raw)
	for i, v := range e.raw {
		if v != 0 {
			nt.Add(i, v)
		}
	}
	e.tree = nt
	e.raw = nraw
}

// Vector returns the base feature vector
// [avgSize, iat_1..iat_n, sd_1..sd_m]; entries with no observations are 0.
func (e *Extractor) Vector() []float64 {
	out := make([]float64, e.cfg.VectorLen())
	if e.requests > 0 {
		out[0] = float64(e.totalBytes) / float64(e.requests)
	}
	for i := 0; i < e.cfg.NumIAT; i++ {
		if e.iatCount[i] > 0 {
			out[1+i] = e.iatSum[i] / float64(e.iatCount[i])
		}
	}
	for i := 0; i < e.cfg.NumSD; i++ {
		if e.sdCount[i] > 0 {
			out[1+e.cfg.NumIAT+i] = e.sdSum[i] / float64(e.sdCount[i])
		}
	}
	return out
}

// SizeDistribution returns the bucketised request-size distribution
// (fractions summing to 1 once any request has been observed).
func (e *Extractor) SizeDistribution() []float64 { return e.sizeHist.Fractions() }

// Extended returns Vector() with SizeDistribution() appended — the input the
// cross-expert predictors are trained on (§4.1).
func (e *Extractor) Extended() []float64 {
	return append(e.Vector(), e.SizeDistribution()...)
}

// Reset clears all accumulated state, releasing the per-object map and tree.
// §6.4: "This tree is deleted at the end of the stage, and we only store a
// single feature vector with 15 entries."
func (e *Extractor) Reset() {
	fresh, _ := NewExtractor(e.cfg) // cfg already validated
	*e = *fresh
}

// FromTrace extracts the base feature vector of an entire trace.
func FromTrace(tr *trace.Trace, cfg Config) ([]float64, error) {
	ex, err := NewExtractor(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Requests {
		ex.Observe(r)
	}
	return ex.Vector(), nil
}

// RelativeError returns the mean element-wise relative error |a−b| / |b|
// between a candidate vector a and a reference b, skipping entries where the
// reference is 0 (used for the Figure 5a feature-convergence study).
func RelativeError(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	var n int
	for i := range a {
		if b[i] == 0 {
			continue
		}
		sum += math.Abs(a[i]-b[i]) / math.Abs(b[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
