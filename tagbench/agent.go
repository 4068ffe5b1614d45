package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/topology"
)

// timedAgent is the traced run's shim between a controller and its
// fault-free chaos.Fabric: it forwards every RPC and records a span per
// call, so deploy time splits out of the controller's own time.
type timedAgent struct {
	fab *chaos.Fabric
	tr  *tracer
}

func (a timedAgent) Install(sw string, b deploy.SwitchBundle) error {
	defer a.tr.end(a.tr.begin("deploy.install"))
	return a.fab.Install(sw, b)
}

func (a timedAgent) Fetch(sw string) (deploy.SwitchBundle, error) {
	defer a.tr.end(a.tr.begin("deploy.fetch"))
	return a.fab.Fetch(sw)
}

func (a timedAgent) Activate(sw string) error {
	defer a.tr.end(a.tr.begin("deploy.activate"))
	return a.fab.Activate(sw)
}

func (a timedAgent) FetchActive(sw string) (deploy.SwitchBundle, error) {
	defer a.tr.end(a.tr.begin("deploy.fetch_active"))
	return a.fab.FetchActive(sw)
}

func (a timedAgent) Patch(sw string, d deploy.SwitchDiff) error {
	defer a.tr.end(a.tr.begin("deploy.patch"))
	return a.fab.Patch(sw, d)
}

func switchNames(g *topology.Graph) []string {
	var out []string
	for _, sw := range g.Switches() {
		out = append(out, g.Node(sw).Name)
	}
	return out
}

// checkActive reports whether the switches' live bundles equal intent.
func checkActive(fab *chaos.Fabric, intent *deploy.Bundle) error {
	if d := deploy.Diff(fab.ActiveBundle(intent.MaxTag), intent); len(d) > 0 {
		return fmt.Errorf("active bundle differs from intent on %d switches", len(d))
	}
	return nil
}

// checkDeployed is the bring-up and churn correctness check: the
// independent oracle accepts the deployed system and every agent runs
// exactly the intent bundle.
func checkDeployed(sys *core.System, fab *chaos.Fabric, intent *deploy.Bundle) error {
	if err := check.VerifySystem(sys); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return checkActive(fab, intent)
}

// bundleRules counts the rules a bundle writes across all switches.
func bundleRules(b *deploy.Bundle) int {
	n := 0
	for _, sb := range b.Switches {
		n += len(sb.Rules)
	}
	return n
}
