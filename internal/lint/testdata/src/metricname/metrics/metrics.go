package metrics

// Registry mirrors the real registry's name-taking surface; bodies are
// irrelevant to the analyzer, which matches call sites.
type Registry struct{}

type Counter struct{}

func (c *Counter) Inc()            {}
func (c *Counter) Add(v float64)   {}

type Gauge struct{}

func (g *Gauge) Set(v float64) {}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }
func (r *Registry) Gauge(name string) *Gauge     { return &Gauge{} }

type BucketedHistogram struct{}

func (h *BucketedHistogram) Observe(v float64) {}

func (r *Registry) BucketedHistogram(name string) *BucketedHistogram { return &BucketedHistogram{} }
