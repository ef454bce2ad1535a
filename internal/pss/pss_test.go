package pss

import (
	"testing"
	"time"
)

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.ViewSize != 10 || p.ShuffleSize != 5 || p.Period != time.Second {
		t.Fatalf("defaults = %+v, want view 10 / shuffle 5 / 1s", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name string
		p    Params
	}{
		{"zero view", Params{ViewSize: 0, ShuffleSize: 1, Period: time.Second}},
		{"zero shuffle", Params{ViewSize: 5, ShuffleSize: 0, Period: time.Second}},
		{"shuffle > view", Params{ViewSize: 5, ShuffleSize: 6, Period: time.Second}},
		{"zero period", Params{ViewSize: 5, ShuffleSize: 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Fatal("Validate accepted invalid params")
			}
		})
	}
}
