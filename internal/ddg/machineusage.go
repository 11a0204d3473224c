package ddg

import "repro/internal/resmodel"

// MachineUsage adapts a machine description to the UsageCounter interface
// used by ResMII.
type MachineUsage struct {
	M *resmodel.Machine
}

// NumResources implements UsageCounter.
func (mu MachineUsage) NumResources() int { return len(mu.M.Resources) }

// NumAlts implements UsageCounter.
func (mu MachineUsage) NumAlts(op int) int { return len(mu.M.Ops[op].Alts) }

// AltUses implements UsageCounter.
func (mu MachineUsage) AltUses(op, alt int) []resmodel.Usage { return mu.M.Ops[op].Alts[alt].Uses }

var _ UsageCounter = MachineUsage{}
