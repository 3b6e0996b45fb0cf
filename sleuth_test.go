package sleuth

import (
	"path/filepath"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
)

// endToEnd builds the full facade pipeline once for several tests.
func endToEnd(t *testing.T, seed uint64) (*World, *Model, *Analyzer, []*Trace) {
	t.Helper()
	app := NewSyntheticApp(16, seed)
	world := NewWorld(app, seed)
	normal, err := world.SimulateNormal(100)
	if err != nil {
		t.Fatal(err)
	}
	// Mix some unlabeled incidents into training, as production would.
	inc, err := world.SimulateIncident(nil, 20, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{EmbeddingDim: 8, Hidden: 24, Epochs: 3, LearningRate: 3e-3, Seed: seed}
	model, err := Train(append(append([]*Trace{}, normal...), inc.Traces...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.SetNormals(normal)
	analyzer := NewAnalyzer(model)
	analyzer.SetSLOs(SLOs(normal))
	return world, model, analyzer, normal
}

func TestFacadeEndToEnd(t *testing.T) {
	world, _, analyzer, _ := endToEnd(t, 1)
	// Inject a directed fault and analyze the resulting anomalies.
	svc := world.App.Services[world.App.ServiceAtCallDepth(1)].Name
	plan, err := world.InjectFault(svc, Fault{Type: chaos.FaultCPU, SlowFactor: 60})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := world.SimulateIncident(plan, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	var anomalous []*Trace
	for _, tr := range inc.Traces {
		if analyzer.IsAnomalous(tr) {
			anomalous = append(anomalous, tr)
		}
	}
	if len(anomalous) == 0 {
		t.Skip("no anomalies surfaced")
	}
	report := analyzer.Analyze(anomalous)
	if len(report.Diagnoses) == 0 {
		t.Fatal("no diagnoses")
	}
	if report.Inferences > len(anomalous) {
		t.Fatalf("inferences %d exceed traces %d", report.Inferences, len(anomalous))
	}
	// At least one diagnosis should blame the faulted service.
	found := false
	covered := 0
	for _, d := range report.Diagnoses {
		covered += len(d.TraceIDs)
		for _, s := range d.Services {
			if s == svc {
				found = true
			}
		}
	}
	if covered != len(anomalous) {
		t.Fatalf("diagnoses cover %d of %d traces", covered, len(anomalous))
	}
	if !found {
		t.Fatalf("no diagnosis blames %s", svc)
	}
}

func TestFacadeModelPersistence(t *testing.T) {
	_, model, _, normal := endToEnd(t, 3)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, model); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	d1, _, _ := model.ScoreBatch(normal[:1], 1)
	d2, _, _ := back.ScoreBatch(normal[:1], 1)
	for i := range d1[0] {
		if d1[0][i] != d2[0][i] {
			t.Fatal("loaded model differs")
		}
	}
}

func TestFacadeFineTune(t *testing.T) {
	_, model, _, _ := endToEnd(t, 4)
	other := NewWorld(NewSyntheticApp(16, 99), 99)
	fresh, err := other.SimulateNormal(30)
	if err != nil {
		t.Fatal(err)
	}
	if err := FineTune(model, fresh, TrainConfig{Epochs: 1, LearningRate: 5e-4, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	// The fine-tuned model predicts on the new app without panics.
	d, e, _ := model.ScoreBatch(fresh[:1], 1)
	if len(d[0]) != fresh[0].Len() || len(e[0]) != fresh[0].Len() {
		t.Fatal("prediction sizes wrong after fine-tune")
	}
}

func TestInjectFaultValidation(t *testing.T) {
	world := NewWorld(NewSyntheticApp(16, 5), 5)
	if _, err := world.InjectFault("nope", Fault{Type: chaos.FaultCPU, SlowFactor: 2}); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestSLOs(t *testing.T) {
	world := NewWorld(NewSyntheticApp(16, 6), 6)
	normal, err := world.SimulateNormal(50)
	if err != nil {
		t.Fatal(err)
	}
	slos := SLOs(normal)
	if len(slos) == 0 {
		t.Fatal("no SLOs derived")
	}
	for op, v := range slos {
		if v <= 0 {
			t.Fatalf("SLO for %s is %v", op, v)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	_, _, analyzer, _ := endToEnd(t, 7)
	report := analyzer.Analyze(nil)
	if len(report.Diagnoses) != 0 || report.Inferences != 0 {
		t.Fatal("empty analysis not empty")
	}
}
