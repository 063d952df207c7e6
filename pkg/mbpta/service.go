// The pWCET analysis service surface: the wire types of the pwcetd
// HTTP API, a client for it, and the public face of the distributed
// campaign fabric (pool construction, workload specs). The service itself lives in internal/pwcetd
// and is started by cmd/pwcetd; this file is everything a program
// needs to talk to one — or to embed a fabric pool directly.

package mbpta

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/fabric"
)

// Campaign-fabric types re-exported for embedding a pool in-process
// (see WithExecutorPool) and for building service campaign specs.
type (
	// FabricConfig tunes a campaign-fabric pool; the zero value selects
	// defaults (GOMAXPROCS executors, 256 admission slots, 4 leases per
	// campaign).
	FabricConfig = fabric.Config
	// FabricPool is the fabric coordinator: a shared executor pool many
	// concurrent campaigns multiplex over with fair scheduling and
	// bounded backpressure.
	FabricPool = fabric.Pool
	// FabricStats is a point-in-time pool snapshot.
	FabricStats = fabric.Stats
	// WorkloadSpec names a workload kind and its JSON-encoded parameters
	// — the serializable unit remote executors and the pWCET service
	// rebuild workloads from.
	WorkloadSpec = fabric.WorkloadSpec
	// WorkloadRegistry maps workload kinds to constructors.
	WorkloadRegistry = fabric.Registry
)

// NewFabricPool starts a campaign-fabric coordinator. Close it when
// done; pass it to WithExecutorPool to run campaigns on it.
func NewFabricPool(cfg FabricConfig) *FabricPool { return fabric.NewPool(cfg) }

// BuiltinWorkloads returns the registry of this repository's workloads
// (the TVCA case study and the generality kernels), the default
// registry of pools, executors and the pWCET service.
func BuiltinWorkloads() *WorkloadRegistry { return fabric.BuiltinRegistry() }

// NamedPlatformConfig resolves the reference platform builds by name:
// "RAND" (or empty) and "DET".
func NamedPlatformConfig(name string) (PlatformConfig, error) {
	return fabric.NamedPlatform(name)
}

// CampaignSpec is the wire form of a campaign submission to the pWCET
// service (POST /api/v1/campaigns). Zero fields select the campaign
// defaults: platform RAND, 3000 runs, batch size 250, base seed 0.
type CampaignSpec struct {
	// Platform names the platform build: "RAND" (default) or "DET".
	Platform string `json:"platform,omitempty"`
	// Workload is the workload to measure, resolved by the service's
	// workload registry.
	Workload WorkloadSpec `json:"workload"`
	Runs     int          `json:"runs,omitempty"`
	Batch    int          `json:"batch_size,omitempty"`
	BaseSeed uint64       `json:"base_seed,omitempty"`
	// MeasureOnly skips the final per-path analysis (DET campaigns are
	// expected to fail the i.i.d. gate; collect them measure-only).
	MeasureOnly bool `json:"measure_only,omitempty"`
	// QuantileGate additionally runs the nine-decile identical-
	// distribution gate; QuantileAlpha is its family-wise
	// false-positive budget (0 = the default 0.01).
	QuantileGate  bool    `json:"quantile_gate,omitempty"`
	QuantileAlpha float64 `json:"quantile_alpha,omitempty"`
	// FaultRate attaches the deterministic SEU injector: expected
	// upsets per run (Poisson), 0 = no injection. Fault campaigns run
	// on the service's executor pool, on its in-process executors
	// (remote executors are never leased an injected campaign).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Mitigation names the fault-mitigation scheme under FaultRate
	// ("none", "scrub", "ecc", "lockstep"; empty = none) and Hazard the
	// upset-rate profile ("constant", "weibull", "orbit"; empty =
	// constant). Both require FaultRate > 0.
	Mitigation string `json:"mitigation,omitempty"`
	Hazard     string `json:"hazard,omitempty"`
}

// CampaignStatus is the wire form of a campaign's state
// (GET /api/v1/campaigns/{id}).
type CampaignStatus struct {
	ID string `json:"id"`
	// State is "running", "done" or "failed". A campaign whose analysis
	// rejected the i.i.d. gate is "done" (the measurements are valid);
	// Error then names the rejection.
	State     string `json:"state"`
	RunsDone  int    `json:"runs_done"`
	RunsTotal int    `json:"runs_total"`
	Converged bool   `json:"converged,omitempty"`
	// Fingerprint is the canonical SHA-256 of the finished report — the
	// bit-identity proof across execution modes (empty until done).
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
}

// ServiceReport is the wire form of a finished campaign's report
// (GET /api/v1/campaigns/{id}/report).
type ServiceReport struct {
	CampaignStatus
	Platform string `json:"platform"`
	Workload string `json:"workload"`
	Rule     string `json:"rule"`
	// GatePass is the final i.i.d. gate verdict (absent under
	// MeasureOnly or when the analysis never completed).
	GatePass *bool `json:"gate_pass,omitempty"`
	// QGatePass and QGateLeakP report the nine-decile gate's verdict
	// and posterior leak probability (absent unless the campaign ran
	// with QuantileGate).
	QGatePass  *bool    `json:"qgate_pass,omitempty"`
	QGateLeakP *float64 `json:"qgate_leak_p,omitempty"`
	// PWCET maps exceedance probabilities (formatted "1e-12") to pWCET
	// bounds in cycles at the standard cutoffs, when analyzed.
	PWCET map[string]float64 `json:"pwcet,omitempty"`
	// Fault-campaign outcome tallies (present when the spec requested
	// injection): clean analyzed runs, mitigated recoveries per class,
	// quarantined runs per class, and the fault-cap clamp count.
	FaultClean       int            `json:"fault_clean,omitempty"`
	FaultMitigated   map[string]int `json:"fault_mitigated,omitempty"`
	FaultQuarantined map[string]int `json:"fault_quarantined,omitempty"`
	FaultClamped     int            `json:"fault_clamped,omitempty"`
}

// PWCETAnswer is the wire form of a quantile query
// (GET /api/v1/campaigns/{id}/pwcet?q=1e-12).
type PWCETAnswer struct {
	ID     string  `json:"id"`
	Q      float64 `json:"q"`
	Cycles float64 `json:"pwcet_cycles"`
}

// ServiceClient talks to a pwcetd instance over its HTTP API.
type ServiceClient struct {
	base string
	http *http.Client
}

// NewServiceClient returns a client for the pwcetd at baseURL (e.g.
// "http://localhost:8227"). A nil hc selects http.DefaultClient.
func NewServiceClient(baseURL string, hc *http.Client) *ServiceClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &ServiceClient{base: baseURL, http: hc}
}

// Submit submits a campaign and returns its ID. The campaign executes
// asynchronously on the service's fabric pool; poll Status or call
// Wait.
func (c *ServiceClient) Submit(ctx context.Context, spec CampaignSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("mbpta: encode campaign spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/api/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(req, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status fetches a campaign's current state.
func (c *ServiceClient) Status(ctx context.Context, id string) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.get(ctx, "/api/v1/campaigns/"+url.PathEscape(id), &st)
	return st, err
}

// Report fetches a finished campaign's report. The service answers 409
// while the campaign is still running.
func (c *ServiceClient) Report(ctx context.Context, id string) (ServiceReport, error) {
	var rep ServiceReport
	err := c.get(ctx, "/api/v1/campaigns/"+url.PathEscape(id)+"/report", &rep)
	return rep, err
}

// PWCET queries a finished campaign's pWCET bound at exceedance
// probability q. The service caches computed quantiles.
func (c *ServiceClient) PWCET(ctx context.Context, id string, q float64) (float64, error) {
	var ans PWCETAnswer
	path := "/api/v1/campaigns/" + url.PathEscape(id) + "/pwcet?q=" +
		url.QueryEscape(strconv.FormatFloat(q, 'e', -1, 64))
	if err := c.get(ctx, path, &ans); err != nil {
		return 0, err
	}
	return ans.Cycles, nil
}

// PoolStats fetches the service's fabric-pool snapshot.
func (c *ServiceClient) PoolStats(ctx context.Context) (FabricStats, error) {
	var st FabricStats
	err := c.get(ctx, "/api/v1/pool", &st)
	return st, err
}

// Wait polls Status every poll (default 100ms) until the campaign
// leaves the "running" state or ctx expires.
func (c *ServiceClient) Wait(ctx context.Context, id string, poll time.Duration) (CampaignStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State != "running" {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

func (c *ServiceClient) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *ServiceClient) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// Service errors arrive as {"error": "..."}; surface the text.
		var e struct {
			Error string `json:"error"`
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("mbpta: pwcetd %s: %s (HTTP %d)", req.URL.Path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("mbpta: pwcetd %s: HTTP %d", req.URL.Path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
