package metrics

import "testing"

func TestValidName(t *testing.T) {
	for _, name := range []string{
		"probe.detect_latency_seconds",
		"multicast.step_depth",
		"peers.removed.stale",
		"net.send.heartbeat-ack",
		"net.recv_bits.join-query",
		"net.send.unknown_dest",
		"query.deltas.add",
		"telemetry.counter_regressions",
		"health.detect_latency_p99_seconds",
		"x",
		"a1.b2",
		"pw",
		"pwsim.rounds",
	} {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false, want true", name)
		}
	}
	for _, name := range []string{
		"",
		"Probe.rounds",
		"probe.Rounds",
		"probe rounds",
		"probe.rounds\n",
		"x 1\npw_fake",
		"probe..rounds",
		".probe",
		"probe.",
		"1probe",
		"_probe",
		"-probe",
		"pw.probe.count",
		"pw_probe_count",
		"probe:rounds",
		"probe{le=\"1\"}",
		"prοbe", // Greek omicron
	} {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true, want false", name)
		}
	}
}
