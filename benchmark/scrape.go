package main

import (
	"net/http"
	"sync"
	"time"
)

// scrapeEvery is the reader's open-loop schedule: 50 Hz, far above any real
// scraper, so the status reads are frequent enough to show up beside the
// commit path within a two-second repetition.
const scrapeEvery = 20 * time.Millisecond

// discardResponse is the socket-less http.ResponseWriter the health handler
// writes into.
type discardResponse struct {
	header http.Header
	bytes  int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(b []byte) (int, error) { d.bytes += len(b); return len(b), nil }

// scraper is the one reader goroutine of the scraped workload. Each round
// is due at start+k*scrapeEvery and is timed from that due time, so a round
// delayed by a stall still counts the delay; late records how far behind
// its schedule the generator itself woke up.
type scraper struct {
	sys  *system
	quit chan struct{}
	done sync.WaitGroup

	round, late                  []float64 // µs
	expo, health, status, boards []float64 // µs per call
	expoBytes                    int
}

func startScraper(sys *system) *scraper {
	s := &scraper{sys: sys, quit: make(chan struct{})}
	s.done.Add(1)
	go s.loop()
	return s
}

// stop ends the reader and returns once its goroutine has exited.
func (s *scraper) stop() {
	close(s.quit)
	s.done.Wait()
}

func (s *scraper) loop() {
	defer s.done.Done()
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * scrapeEvery)
		timer.Reset(time.Until(due))
		select {
		case <-s.quit:
			return
		case <-timer.C:
		}
		s.late = append(s.late, us(time.Since(due)))
		s.once()
		s.round = append(s.round, us(time.Since(due)))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// once performs one full scrape round over the four status surfaces.
func (s *scraper) once() {
	sys := s.sys
	var cw discardResponse
	t := time.Now()
	_ = sys.reg.WriteOpenMetrics(&cw) // the writer cannot fail
	s.expo = append(s.expo, us(time.Since(t)))
	s.expoBytes = cw.bytes

	t = time.Now()
	req, _ := http.NewRequest(http.MethodGet, "/healthz", nil) // constant, well-formed request
	sys.srv.HealthHandler().ServeHTTP(&discardResponse{header: http.Header{}}, req)
	s.health = append(s.health, us(time.Since(t)))

	t = time.Now()
	_ = sys.tracker.Status(true)
	s.status = append(s.status, us(time.Since(t)))

	t = time.Now()
	for _, b := range sys.boards {
		_ = b.Snapshot()
	}
	s.boards = append(s.boards, us(time.Since(t)))
}

// report adds the scrape metrics to a traced repetition's layer values.
// Nil-safe: workloads without a reader report nothing here and the emitter
// fills the names in as zero.
func (s *scraper) report(layers map[string]sample) {
	if s == nil {
		return
	}
	if len(s.round) > 0 { // a live reader, not the post-run reads
		layers["stream.scrape_p50_us"] = sample{median(s.round), len(s.round)}
		layers["stream.scrape_p99_us"] = sample{percentile(s.round, 0.99), len(s.round)}
		layers["stream.scrape_late_us"] = sample{median(s.late), len(s.late)}
	}
	layers["metrics.exposition_us"] = sample{median(s.expo), len(s.expo)}
	layers["metrics.exposition_bytes"] = sample{float64(s.expoBytes), len(s.expo)}
	layers["stream.health_us"] = sample{median(s.health), len(s.health)}
	layers["slo.status_us"] = sample{median(s.status), len(s.status)}
	layers["shadow.snapshot_us"] = sample{median(s.boards), len(s.boards)}
}
