package stream

import (
	"encoding/json"
	"math"
	"net/http"

	"triplec/internal/core"
	"triplec/internal/promote"
	"triplec/internal/slo"
)

// Health is one stream's live serving summary, assembled from the stream's
// telemetry instruments. Every numeric field is sanitized to a finite value
// so the JSON encoding can never fail on NaN/Inf.
type Health struct {
	Stream string `json:"stream"`
	// State is "idle" (before the first Run), "serving", "done", "failed"
	// or "quarantined"; Error carries the serve error of a failed or
	// quarantined stream.
	State string `json:"state"`
	Error string `json:"error,omitempty"`

	Offered         uint64 `json:"offered"`
	Processed       uint64 `json:"processed"`
	Skipped         uint64 `json:"skipped"`
	Failed          uint64 `json:"failed"`
	Abandoned       uint64 `json:"abandoned"`
	SerialFallbacks uint64 `json:"serial_fallbacks"`
	DeadlineMisses  uint64 `json:"deadline_misses"`
	AccountingErrs  uint64 `json:"accounting_errors"`
	Restarts        uint64 `json:"restarts"`
	TaskPanics      uint64 `json:"task_panics"`
	LastFrame       int    `json:"last_frame"`
	QualityLevel    int    `json:"quality_level"`

	// Predictor identifies the deployed prediction backend steering this
	// stream's scheduling decisions. Without a promotion controller it is
	// always the baseline; with one it flips to the challenger on the
	// streams a canary or fleet promotion is steering, and back on rollback.
	Predictor string `json:"predictor"`

	MissRate float64 `json:"miss_rate"`
	// RollingMissRate is the miss fraction over the last RollingMissSamples
	// (≤ 64) processed frames — the promotion guardrails watch this shape
	// of signal, and a shift shows here while the lifetime MissRate still
	// averages it away.
	RollingMissRate    float64 `json:"rolling_miss_rate"`
	RollingMissSamples int     `json:"rolling_miss_samples"`
	ScenarioHitRate    float64 `json:"scenario_hit_rate"`
	// RollingScenarioHitRate is the hit fraction over the last
	// RollingScenarioSamples (≤ 64) forecasts — a drift probe that reacts
	// where the cumulative ScenarioHitRate averages it away.
	RollingScenarioHitRate float64 `json:"rolling_scenario_hit_rate"`
	RollingScenarioSamples int     `json:"rolling_scenario_samples"`
	BudgetMs               float64 `json:"budget_ms"`
	LastLatencyMs          float64 `json:"last_latency_ms"`
	MeanLatencyMs          float64 `json:"mean_latency_ms"`
	P95LatencyMs           float64 `json:"p95_latency_ms"`
	CoreBudget             float64 `json:"core_budget"`
}

// healthReport is the /healthz response body.
type healthReport struct {
	Status  string   `json:"status"` // "ok" or "degraded"
	Streams []Health `json:"streams"`
	// Promotion is the guarded-promotion controller's live status (state,
	// challenger, canary width, guard windows); omitted when the server was
	// built without ServerConfig.Promote.
	Promotion *promote.Status `json:"promotion,omitempty"`
	// SLO is the burn-rate tracker's live status (per-SLO alert states and
	// burn rates plus the fleet cause ledger); omitted when the server was
	// built without ServerConfig.SLO.
	SLO *slo.Status `json:"slo,omitempty"`
}

func stateString(s int32) string {
	switch s {
	case streamServing:
		return "serving"
	case streamDone:
		return "done"
	case streamFailed:
		return "failed"
	case streamQuarantined:
		return "quarantined"
	}
	return "idle"
}

func finiteOr0(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Healths returns every stream's live serving summary. It is safe to call
// concurrently with Run (the instruments are atomics) and returns nil when
// the server was built without a metrics registry.
func (s *Server) Healths() []Health {
	if len(s.tels) == 0 {
		return nil
	}
	out := make([]Health, len(s.tels))
	for i, t := range s.tels {
		a := t.acct
		lat := a.FrameLatencyMs.Snapshot()
		pred := core.BackendBaseline
		if s.cfg.Promote != nil {
			pred = s.cfg.Promote.StreamPredictor(i)
		}
		h := Health{
			Stream:          streamLabel(s.streams[i], i),
			State:           stateString(t.state.Load()),
			Offered:         a.Offered.Value(),
			Processed:       a.Processed.Value(),
			Skipped:         a.Skipped.Value(),
			Failed:          t.failedFrames.Value(),
			Abandoned:       t.abandonedFrames.Value(),
			SerialFallbacks: a.SerialFallbacks.Value(),
			DeadlineMisses:  a.DeadlineMisses.Value(),
			AccountingErrs:  a.AccountingErrs.Value(),
			Restarts:        t.restarts.Value(),
			TaskPanics:      t.taskPanics.Value(),
			LastFrame:       int(finiteOr0(a.LastFrame.Value())),
			QualityLevel:    int(finiteOr0(t.qualityLevel.Value())),
			Predictor:       pred,
			MissRate:        finiteOr0(a.MissRate()),
			ScenarioHitRate: finiteOr0(a.ScenarioHitRate()),
			BudgetMs:        finiteOr0(a.BudgetMs.Value()),
			LastLatencyMs:   finiteOr0(a.LastLatencyMs.Value()),
			MeanLatencyMs:   finiteOr0(lat.Mean()),
			P95LatencyMs:    finiteOr0(lat.Quantile(0.95)),
			CoreBudget:      finiteOr0(a.CoreBudget.Value()),
		}
		h.RollingScenarioHitRate, h.RollingScenarioSamples = t.scenarioWin.Rate()
		h.RollingScenarioHitRate = finiteOr0(h.RollingScenarioHitRate)
		h.RollingMissRate, h.RollingMissSamples = t.missWin.Rate()
		h.RollingMissRate = finiteOr0(h.RollingMissRate)
		if msg, ok := t.errMsg.Load().(string); ok {
			h.Error = msg
		}
		out[i] = h
	}
	return out
}

// HealthHandler serves the per-stream liveness and miss-rate summary as
// JSON — mount it at /healthz. It answers 200 with status "ok" while every
// stream is healthy and 503 with status "degraded" once any stream has
// failed; without telemetry enabled it answers 404.
func (s *Server) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		streams := s.Healths()
		if streams == nil {
			http.Error(w, `{"error":"telemetry disabled: build the server with ServerConfig.Metrics"}`,
				http.StatusNotFound)
			return
		}
		rep := healthReport{Status: "ok", Streams: streams}
		if s.cfg.Promote != nil {
			st := s.cfg.Promote.Status()
			rep.Promotion = &st
		}
		if s.cfg.SLO != nil {
			rep.SLO = s.cfg.SLO.Status(false)
		}
		code := http.StatusOK
		for _, h := range streams {
			if h.State == "failed" || h.State == "quarantined" {
				rep.Status = "degraded"
				code = http.StatusServiceUnavailable
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding cannot fail: every numeric field is sanitized finite.
		_ = enc.Encode(rep)
	})
}
