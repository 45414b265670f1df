package obs_test

import (
	"bytes"
	"testing"

	"charm"
	"charm/internal/obs"
	"charm/internal/scenario"
)

// TestMetricsJSONTenantsDocument: the document of a real two-tenant run —
// power plane, tracing and metrics on, the sampled history of every
// traced series — is written byte for byte as encoding/json writes it.
func TestMetricsJSONTenantsDocument(t *testing.T) {
	run, err := scenario.Tenants(scenario.Isolated, false, scenario.TenantBFactor).Run(func(rt *charm.Runtime) {
		rt.EnableMetrics(true)
		rt.EnableTracing(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.RT.Finalize()
	snap, history := run.RT.MetricsSnapshot(), run.RT.MetricsRegistry().History()
	if len(history) < 10 || len(snap.Samples) < 100 {
		t.Fatalf("a thin document: %d series, %d history points", len(snap.Samples), len(history))
	}
	var got, want bytes.Buffer
	if err := obs.WriteJSON(&got, snap, history); err != nil {
		t.Fatal(err)
	}
	if err := obs.RefWriteMetricsJSON(&want, snap, history); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the two-tenant document (%d bytes) differs from encoding/json's (%d bytes)", got.Len(), want.Len())
	}
}
