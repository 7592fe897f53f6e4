package baselines

import (
	"fmt"
	"math"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/features"
	"darwin/internal/neural"
	"darwin/internal/trace"
)

// DirectMapping is the design Darwin rejects in §4: a neural classifier maps
// warm-up traffic features directly to the single predicted-best expert,
// which is then deployed for the rest of the epoch. It is brittle because
// nothing corrects a wrong prediction — there is no testing of candidates.
type DirectMapping struct {
	hier       *cache.Hierarchy
	net        *neural.Net
	mean, std  []float64
	experts    []cache.Expert
	featureCfg features.Config
	warmup     int
	epoch      int

	extractor *features.Extractor
	n         int
	deployed  bool
}

// DirectMappingConfig configures online deployment.
type DirectMappingConfig struct {
	// Warmup is the feature-estimation prefix per epoch.
	Warmup int
	// Epoch is the redeployment period.
	Epoch int
	// Eval sizes the cache.
	Eval cache.EvalConfig
}

// TrainDirectMapping fits the feature→best-expert classifier on an offline
// dataset under the given objective.
func TrainDirectMapping(ds *core.Dataset, obj core.Objective, seed int64) (*neural.Net, []float64, []float64, error) {
	if len(ds.Records) == 0 {
		return nil, nil, nil, fmt.Errorf("baselines: empty dataset")
	}
	k := len(ds.Experts)
	dim := len(ds.Records[0].Extended)
	mean := make([]float64, dim)
	std := make([]float64, dim)
	for _, rec := range ds.Records {
		for d, v := range rec.Extended {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(len(ds.Records))
	}
	for _, rec := range ds.Records {
		for d, v := range rec.Extended {
			dv := v - mean[d]
			std[d] += dv * dv
		}
	}
	for d := range std {
		std[d] = sqrt(std[d] / float64(len(ds.Records)))
		if std[d] == 0 {
			std[d] = 1
		}
	}
	xs := make([][]float64, len(ds.Records))
	ys := make([][]float64, len(ds.Records))
	for ri, rec := range ds.Records {
		xs[ri] = scaleVec(rec.Extended, mean, std)
		ys[ri] = neural.OneHot(k, ds.BestExpert(rec, obj))
	}
	net, err := neural.New(neural.Config{
		Inputs:    dim,
		Hidden:    []int{16},
		Outputs:   k,
		OutputAct: neural.Softmax,
		Seed:      seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := (neural.Trainer{Epochs: 200, Seed: seed}).Train(net, xs, ys); err != nil {
		return nil, nil, nil, err
	}
	return net, mean, std, nil
}

// NewDirectMapping builds the online server around a trained classifier.
func NewDirectMapping(net *neural.Net, mean, std []float64, experts []cache.Expert, fcfg features.Config, cfg DirectMappingConfig) (*DirectMapping, error) {
	if cfg.Warmup <= 0 || cfg.Epoch <= cfg.Warmup {
		return nil, fmt.Errorf("baselines: need 0 < warmup (%d) < epoch (%d)", cfg.Warmup, cfg.Epoch)
	}
	if len(experts) == 0 {
		return nil, fmt.Errorf("baselines: no experts")
	}
	h, err := newHierarchy(cfg.Eval, experts[0])
	if err != nil {
		return nil, err
	}
	ex, err := features.NewExtractor(fcfg)
	if err != nil {
		return nil, err
	}
	return &DirectMapping{
		hier:       h,
		net:        net,
		mean:       mean,
		std:        std,
		experts:    experts,
		featureCfg: fcfg,
		warmup:     cfg.Warmup,
		epoch:      cfg.Epoch,
		extractor:  ex,
	}, nil
}

// Name implements Server.
func (d *DirectMapping) Name() string { return "directmapping" }

// Serve implements Server.
func (d *DirectMapping) Serve(r trace.Request) cache.Result {
	res := d.hier.Serve(r)
	d.n++
	if !d.deployed {
		d.extractor.Observe(r)
		if d.n >= d.warmup {
			idx := d.net.Classify(scaleVec(d.extractor.Extended(), d.mean, d.std))
			if idx >= len(d.experts) {
				idx = 0
			}
			d.hier.SetExpert(d.experts[idx])
			d.extractor.Reset()
			d.deployed = true
		}
	}
	if d.n >= d.epoch {
		d.n = 0
		d.deployed = false
	}
	return res
}

// Metrics implements Server.
func (d *DirectMapping) Metrics() cache.Metrics { return d.hier.Metrics() }

// ResetMetrics implements Server.
func (d *DirectMapping) ResetMetrics() { d.hier.ResetMetrics() }

// Expert returns the current expert (for tests).
func (d *DirectMapping) Expert() cache.Expert { return d.hier.Expert() }

func scaleVec(x, mean, std []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if i < len(mean) {
			out[i] = (v - mean[i]) / std[i]
		} else {
			out[i] = v
		}
	}
	return out
}

func sqrt(x float64) float64 { return math.Sqrt(x) }
