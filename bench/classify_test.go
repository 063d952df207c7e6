package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/mbpta"
)

func TestCampaignFailureVersusVerdict(t *testing.T) {
	rep := &mbpta.CampaignReport{}
	for _, tc := range []struct {
		name   string
		rep    *mbpta.CampaignReport
		err    error
		failed bool
	}{
		{"clean", rep, nil, false},
		{"i.i.d. rejection", rep, fmt.Errorf("final analysis: %w", mbpta.ErrIIDGateFailed), false},
		{"not converged", rep, fmt.Errorf("%w: rule crps", mbpta.ErrNotConverged), false},
		{"unfittable tail", rep, errors.New("evt: unusable sample: constant maxima"), false},
		{"canceled", rep, fmt.Errorf("%w after 250 runs: %w", mbpta.ErrCanceled, context.Canceled), true},
		{"degraded", rep, fmt.Errorf("%w after 500 runs", mbpta.ErrDegraded), true},
		{"no report", nil, errors.New("platform: bad config"), true},
	} {
		if got := campaignFailed(tc.rep, tc.err); got != tc.failed {
			t.Errorf("%s: campaignFailed = %v, want %v", tc.name, got, tc.failed)
		}
	}
}

// fakePWCETD answers the client's four calls: submit with status
// submitCode, then a status of state/errText, a report and a pWCET.
func fakePWCETD(t *testing.T, submitCode int, state, errText string, pwcetCalls *int) *service {
	mux := http.NewServeMux()
	reply := func(w http.ResponseWriter, code int, v any) {
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("POST /api/v1/campaigns", func(w http.ResponseWriter, _ *http.Request) {
		if submitCode != http.StatusAccepted {
			reply(w, submitCode, map[string]string{"error": "bad spec"})
			return
		}
		reply(w, submitCode, map[string]string{"id": "c000001"})
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}", func(w http.ResponseWriter, _ *http.Request) {
		reply(w, http.StatusOK, mbpta.CampaignStatus{ID: "c000001", State: state, RunsDone: 500, Fingerprint: "fp", Error: errText})
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", func(w http.ResponseWriter, _ *http.Request) {
		reply(w, http.StatusOK, mbpta.ServiceReport{PWCET: map[string]float64{"1e-12": 123}})
	})
	mux.HandleFunc("GET /api/v1/campaigns/{id}/pwcet", func(w http.ResponseWriter, _ *http.Request) {
		*pwcetCalls++
		reply(w, http.StatusOK, mbpta.PWCETAnswer{ID: "c000001", Q: 1e-12, Cycles: 123})
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return &service{http: hs, hc: hs.Client(), client: mbpta.NewServiceClient(hs.URL, hs.Client())}
}

func TestServiceRequestFailureVersusVerdict(t *testing.T) {
	for _, tc := range []struct {
		name        string
		submitCode  int
		state, errs string
		failed      bool
		queried     bool
	}{
		{"analyzed", http.StatusAccepted, "done", "", false, true},
		{"gate verdict", http.StatusAccepted, "done", mbpta.ErrIIDGateFailed.Error(), false, false},
		{"failed campaign", http.StatusAccepted, "failed", "fabric: pool closed", true, false},
		{"refused submission", http.StatusBadRequest, "", "", true, false},
	} {
		calls := 0
		sv := fakePWCETD(t, tc.submitCode, tc.state, tc.errs, &calls)
		r := sv.request(context.Background(), mbpta.CampaignSpec{}, nil)
		if r.failed != tc.failed || (calls > 0) != tc.queried {
			t.Errorf("%s: failed=%v queried=%v, want failed=%v queried=%v", tc.name, r.failed, calls > 0, tc.failed, tc.queried)
		}
		if !r.failed && (r.fp != "fp" || r.runs != 500) {
			t.Errorf("%s: reply %+v lost the campaign's fingerprint or runs", tc.name, r)
		}
	}
}
