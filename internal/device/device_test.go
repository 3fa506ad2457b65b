package device

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0).UTC()

func TestSensorKindsProduceReadings(t *testing.T) {
	kinds := []SensorKind{
		SensorTemperature, SensorVibration, SensorPower,
		SensorHumidity, SensorMachineConfig,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			s := NewSensor(kind, 1)
			for i := 0; i < 50; i++ {
				r := s.Next(t0.Add(time.Duration(i) * time.Second))
				if r.Kind != kind {
					t.Fatalf("reading kind = %v", r.Kind)
				}
				if r.Seq != uint64(i+1) {
					t.Fatalf("seq = %d at i=%d", r.Seq, i)
				}
				if len(r.Blob) == 0 {
					t.Fatal("empty blob")
				}
			}
		})
	}
}

func TestSensorDeterministicBySeed(t *testing.T) {
	a := NewSensor(SensorTemperature, 7)
	b := NewSensor(SensorTemperature, 7)
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		ra, rb := a.Next(at), b.Next(at)
		if ra.Value != rb.Value || !bytes.Equal(ra.Blob, rb.Blob) {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSensor(SensorTemperature, 8)
	diverged := false
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if a.Next(at).Value != c.Next(at).Value {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical streams")
	}
}

func TestSensorBlobFormat(t *testing.T) {
	s := NewSensor(SensorTemperature, 1)
	r := s.Next(t0)
	blob := string(r.Blob)
	for _, want := range []string{"sensor=temperature", "seq=1", "value="} {
		if !strings.Contains(blob, want) {
			t.Errorf("blob %q missing %q", blob, want)
		}
	}
}

func TestMachineConfigBlobFormat(t *testing.T) {
	s := NewSensor(SensorMachineConfig, 1)
	blob := string(s.Next(t0).Blob)
	for _, want := range []string{"part=", "spindle_rpm=", "feed_mmpm=", "tol_um="} {
		if !strings.Contains(blob, want) {
			t.Errorf("config blob %q missing %q", blob, want)
		}
	}
}

func TestSensitivityClassification(t *testing.T) {
	sensitive := []SensorKind{SensorVibration, SensorPower, SensorMachineConfig}
	public := []SensorKind{SensorTemperature, SensorHumidity}
	for _, k := range sensitive {
		if !k.Sensitive() {
			t.Errorf("%v not sensitive", k)
		}
	}
	for _, k := range public {
		if k.Sensitive() {
			t.Errorf("%v sensitive", k)
		}
	}
}

func TestTemperatureStaysPlausible(t *testing.T) {
	s := NewSensor(SensorTemperature, 3)
	for i := 0; i < 500; i++ {
		r := s.Next(t0.Add(time.Duration(i) * time.Second))
		if r.Value < 10 || r.Value > 35 {
			t.Fatalf("temperature %v out of plausible band at step %d", r.Value, i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if SensorTemperature.String() != "temperature" ||
		SensorMachineConfig.String() != "machine-config" {
		t.Error("kind strings wrong")
	}
	if !strings.HasPrefix(SensorKind(42).String(), "sensor(") {
		t.Error("unknown kind fallback missing")
	}
}
