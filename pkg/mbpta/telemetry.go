package mbpta

import (
	"io"

	"repro/internal/report"
	"repro/internal/telemetry"
)

// Telemetry types re-exported on the v2 surface. A *Telemetry registry
// is created with NewTelemetry, passed to a campaign via WithTelemetry,
// and observed through Snapshot/WriteProm, attached event sinks, or an
// HTTP exposition server (ServeTelemetry).
type (
	// Telemetry is a metrics/event registry (nil = disabled).
	Telemetry = telemetry.Registry
	// TelemetryRing retains the most recent events in memory.
	TelemetryRing = telemetry.RingSink
	// TelemetryServer is a running /metrics exposition endpoint.
	TelemetryServer = telemetry.Server
)

// NewTelemetry returns an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewTelemetryRing returns an in-memory sink keeping the last capacity
// events (capacity < 1 selects 256). Attach it to a registry with
// reg.Attach.
func NewTelemetryRing(capacity int) *TelemetryRing { return telemetry.NewRingSink(capacity) }

// ServeTelemetry starts an HTTP exposition server for reg on addr
// (":0" picks a free port): /metrics serves the Prometheus text
// format, /metrics.json the flat snapshot map.
func ServeTelemetry(addr string, reg *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg)
}

// TelemetryTable renders a registry snapshot as an aligned table.
func TelemetryTable(w io.Writer, title string, snap map[string]float64) {
	report.TelemetryTable(w, title, snap)
}
