package pwcetd_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/pwcetd"
)

// tinyWorkload is a two-instruction program that stands in for every
// workload kind in the decoder fuzz targets, so an accepted body's
// campaign or matrix costs almost nothing to run.
type tinyWorkload struct{}

func (tinyWorkload) Name() string { return "tiny" }

func (tinyWorkload) Prepare(int) (*isa.Machine, error) {
	b := isa.NewBuilder("tiny", 0x1000)
	b.Addi(1, 1, 1)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return isa.NewMachine(prog, isa.NewMemory()), nil
}

func (tinyWorkload) PathOf(*isa.Machine) string { return "" }

// decodeRegistry accepts exactly the workload specs the builtin
// registry accepts — the real parameter decoding and validation run —
// and builds tinyWorkload for each.
func decodeRegistry() *fabric.Registry {
	builtin := fabric.BuiltinRegistry()
	reg := fabric.NewRegistry()
	for _, kind := range builtin.Kinds() {
		reg.Register(kind, func(params json.RawMessage) (platform.Workload, error) {
			if _, err := builtin.Build(fabric.WorkloadSpec{Kind: kind, Params: params}); err != nil {
				return nil, err
			}
			return tinyWorkload{}, nil
		})
	}
	return reg
}

// postBody posts body to path on a fresh service and fails unless the
// answer is a 2xx, or a 4xx carrying a JSON {"error": ...} body. The
// service shuts down before returning, canceling what it accepted.
func postBody(t *testing.T, path string, body []byte) {
	t.Helper()
	pool := fabric.NewPool(fabric.Config{Executors: 1, MaxSessions: 4})
	defer pool.Close()
	svc, err := pwcetd.New(pwcetd.Config{Pool: pool, Registry: decodeRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	switch {
	case rec.Code >= 200 && rec.Code < 300:
	case rec.Code >= 400 && rec.Code < 500:
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: status %d without a typed error body: %q", path, rec.Code, rec.Body.String())
		}
	default:
		t.Fatalf("%s: status %d for body %q: %s", path, rec.Code, body, rec.Body.String())
	}
}

// FuzzCampaignSpecDecode throws arbitrary bodies at POST
// /api/v1/campaigns: every one must be accepted (2xx) or refused with a
// typed 4xx — never a 5xx or a panic.
func FuzzCampaignSpecDecode(f *testing.F) {
	f.Add([]byte(`{"platform":"RAND","workload":{"kind":"tvca","params":{"Frames":4}},"runs":500,"batch_size":100,"base_seed":20170327}`))
	f.Add([]byte(`{"workload":{"kind":"crc32"},"fault_rate":0.3,"mitigation":"ecc"}`))
	f.Add([]byte(`{"workload":{"kind":"isort"},"runs":-1}`))
	f.Add([]byte(`{"workload":{"kind":"matmul","params":{"N":"x"}}}`))
	f.Add([]byte(`{"platform":"X","workload":{"kind":"nope"}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		postBody(t, "/api/v1/campaigns", body)
	})
}

// FuzzMatrixSpecDecode is FuzzCampaignSpecDecode for POST
// /api/v1/matrix.
func FuzzMatrixSpecDecode(f *testing.F) {
	f.Add([]byte(`{"platforms":["DET","RAND"],"workloads":[{"kind":"crc32","params":{"Bytes":4096,"Seed":1}}],"runs":500,"batch":100,"base_seed":42,"analysis":{"block_size":50}}`))
	f.Add([]byte(`{"platforms":["RAND"],"workloads":[{"kind":"tvca"}],"cores":[1,2],"fault_rates":[0,0.5],"stop_rules":[{"kind":"fixed"}]}`))
	f.Add([]byte(`{"platforms":["RAND"],"workloads":[{"kind":"secretdep"}],"leak":true}`))
	f.Add([]byte(`{"platforms":[],"workloads":[{"kind":""}]}`))
	f.Add([]byte(`{"platforms":["RAND"],"workloads":[{"kind":"crc32"}],"cores":[9223372036854775807]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		postBody(t, "/api/v1/matrix", body)
	})
}
