package tables

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// Figure1 renders the paper's introductory example: the original machine
// description (reservation tables and usage sets), the forbidden-latency
// matrix, the generating set of maximal resources, and the reduced
// machine description.
func Figure1() string {
	m := machines.Example()
	e := m.Expand()
	var b strings.Builder

	b.WriteString("Figure 1: Reducing a machine description\n\n")
	b.WriteString("a) Machine description (reservation tables)\n\n")
	for _, o := range e.Ops {
		fmt.Fprintf(&b, "operation %s:\n%s\n", o.Name, resmodel.TableString(e.Resources, o.Table))
	}

	b.WriteString("   usage sets:\n")
	for _, o := range e.Ops {
		for r := range e.Resources {
			us := o.Table.UsageSet(r)
			if len(us) > 0 {
				fmt.Fprintf(&b, "     %s%d = %v\n", o.Name, r, us)
			}
		}
	}

	mat := forbidden.Compute(e)
	b.WriteString("\nb) Forbidden latency set matrix\n\n")
	for x, ox := range e.Ops {
		for y, oy := range e.Ops {
			fmt.Fprintf(&b, "   F[%s][%s] = %s\n", ox.Name, oy.Name, mat.Set(x, y))
		}
	}

	res := core.CachedReduce(e, core.Objective{Kind: core.ResUses})
	if err := res.Verify(); err != nil {
		panic(err)
	}
	b.WriteString("\nc) Generating set of maximal resources\n\n")
	cls := res.Classes
	opName := func(c int) string { return e.Ops[cls.Rep[c]].Name }
	for i, sel := range res.Selected {
		fmt.Fprintf(&b, "   resource %d': %s  (selected usages: ", i, sel.Res.StringWith(opName))
		for j, u := range sel.Uses {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s@%d", opName(u.Op), u.Cycle)
		}
		b.WriteString(")\n")
	}

	b.WriteString("\nd) Reduced machine description (reservation tables)\n\n")
	for _, o := range res.Reduced.Ops {
		fmt.Fprintf(&b, "operation %s:\n%s\n", o.Name, resmodel.TableString(res.Reduced.Resources, o.Table))
	}
	fmt.Fprintf(&b, "resources: %d -> %d; usages: A %d -> %d, B %d -> %d\n",
		len(e.Resources), res.NumResources(),
		len(e.Ops[0].Table.Uses), len(res.Reduced.Ops[0].Table.Uses),
		len(e.Ops[1].Table.Uses), len(res.Reduced.Ops[1].Table.Uses))
	return b.String()
}

// Figure3 renders the step-by-step construction of the generating set for
// the example machine (Rules 1-4 of Algorithm 1): Algorithm 1 is rerun on
// the reduction's class matrix with a trace, and each traced resource is
// rendered with its class representatives' operation names.
func Figure3() string {
	m := machines.Example()
	e := m.Expand()
	res := core.CachedReduce(e, core.Objective{Kind: core.ResUses})
	var tr core.Trace
	core.GeneratingSet(res.ClassMatrix, &tr)
	opName := func(c int) string { return e.Ops[res.Classes.Rep[c]].Name }
	str := func(r *core.Resource) string { return r.StringWith(opName) }

	var b strings.Builder
	b.WriteString("Figure 3: Building the generating set for the example machine\n\n")
	for i, pt := range tr.Pairs {
		fmt.Fprintf(&b, "%c) process %d in F[%s][%s]\n",
			'a'+i, pt.Pair.F, opName(pt.Pair.X), opName(pt.Pair.Y))
		for _, st := range pt.Steps {
			switch {
			case st.Before == nil && st.After != nil:
				fmt.Fprintf(&b, "     %v -> create %s\n", st.Rule, str(st.After))
			case st.After == nil:
				fmt.Fprintf(&b, "     %v against %s\n", st.Rule, str(st.Before))
			default:
				fmt.Fprintf(&b, "     %v: %s -> %s\n", st.Rule, str(st.Before), str(st.After))
			}
		}
		b.WriteString("   generating set now:\n")
		for _, r := range pt.Set {
			fmt.Fprintf(&b, "     %s\n", str(r))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure4 renders the reservation tables of the Cydra 5 benchmark subset
// under the original description, the discrete (res-uses) reduction, and
// the 64-bit-word bitvector reduction — the paper's Figure 4.
func Figure4() string {
	m := machines.Cydra5Subset()
	e := m.Expand()
	var b strings.Builder
	b.WriteString("Figure 4: Reservation tables for the Cydra 5 benchmark subset\n\n")

	renderAll := func(title string, desc *resmodel.Expanded) {
		usages := 0
		for _, o := range desc.Ops {
			usages += len(o.Table.Uses)
		}
		fmt.Fprintf(&b, "%s (%d resources, %d resource usages)\n\n", title, len(desc.Resources), usages)
		for _, o := range desc.Ops {
			fmt.Fprintf(&b, "operation %s:\n%s\n", o.Name, resmodel.TableString(desc.Resources, o.Table))
		}
	}

	renderAll("a) Original machine description", e)

	ru := core.CachedReduce(e, core.Objective{Kind: core.ResUses})
	mustExact(ru)
	renderAll("b) Discrete-representation reduced description", ru.ReducedClass)

	rRed := ru.NumResources()
	if rRed == 0 {
		rRed = 1
	}
	k := 64 / rRed
	if k < 1 {
		k = 1
	}
	kw := core.CachedReduce(e, core.Objective{Kind: core.KCycleWord, K: k})
	mustExact(kw)
	renderAll(fmt.Sprintf("c) Bitvector-representation reduced description (64-bit word, %d cycles/word)", k),
		kw.ReducedClass)
	return b.String()
}

// Summary reports the headline numbers of the abstract: contention-query
// speedup factors and memory ratios for the three machines.
func Summary() string {
	var b strings.Builder
	b.WriteString("Headline summary (abstract / Section 6)\n\n")
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %14s %12s\n",
		"machine", "words/check", "uses-speedup", "word-speedup", "state-memory%", "desc-uses%")
	for _, name := range []string{"mips", "alpha", "cydra5"} {
		t := ComputeReduction(machines.ByName(name))
		ms := t.Memory()
		fmt.Fprintf(&b, "%-16s %10.1f %11.1fx %11.1fx %13.0f%% %11.0f%%\n",
			name, ms.WordsPerCheck, ms.QuerySpeedupUses, ms.QuerySpeedupWords,
			ms.StatePct, ms.DescriptionPct)
	}
	b.WriteString("\npaper: 4-7x faster contention queries; reduced descriptions use 22-90% of\n")
	b.WriteString("the original memory; 1.6 (MIPS), 2.0 (Alpha), 3.3 (Cydra 5) words per check.\n")
	return b.String()
}
