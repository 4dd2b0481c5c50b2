package core

import (
	"testing"

	"watter/internal/pool"
	"watter/internal/strategy"
)

// TestFrameworkTickDefault: a framework starts at the paper's Δt = 10 s, and
// SetTick is what moves it (platform.New calls it with WithTick's value).
func TestFrameworkTickDefault(t *testing.T) {
	fw := New(strategy.Online{}, pool.DefaultOptions())
	if fw.tick != 10 {
		t.Fatalf("default tick = %v", fw.tick)
	}
	fw.SetTick(5)
	if fw.tick != 5 {
		t.Fatalf("tick after SetTick(5) = %v", fw.tick)
	}
}
