package pipeline

import (
	"fmt"
	"time"

	"hdcedge/internal/bagging"
)

// EnergyBreakdown reports modeled energy in joules for one workload on one
// platform. The accounting convention: the host draws active power while a
// host phase runs; during accelerator phases the host idles (it is blocked
// on the USB completion) while the accelerator draws active power.
type EnergyBreakdown struct {
	HostJoules  float64
	AccelJoules float64
}

// Total returns the platform energy.
func (e EnergyBreakdown) Total() float64 { return e.HostJoules + e.AccelJoules }

// MeanPowerWatts returns the average platform power over duration d.
func (e EnergyBreakdown) MeanPowerWatts(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return e.Total() / d.Seconds()
}

// hostOnlyEnergy charges the host's active power for the whole duration.
func hostOnlyEnergy(p Platform, d time.Duration) EnergyBreakdown {
	return EnergyBreakdown{HostJoules: p.Host.ActiveEnergy(d)}
}

// splitEnergy charges accelerator phases at accelerator-active +
// host-idle power, and host phases at host-active power.
func splitEnergy(p Platform, accel, host time.Duration) (EnergyBreakdown, error) {
	if !p.HasAccel() {
		return EnergyBreakdown{}, fmt.Errorf("pipeline: platform %s has no accelerator", p.Name)
	}
	return EnergyBreakdown{
		HostJoules:  p.Host.ActiveEnergy(host) + p.Host.IdleEnergy(accel),
		AccelJoules: p.Accel.ActiveEnergy(accel) + p.Accel.IdlePowerWatts*host.Seconds(),
	}, nil
}

// CPUTrainingEnergy models training energy on a host-only platform.
func CPUTrainingEnergy(p Platform, w Workload) (EnergyBreakdown, error) {
	b, err := CPUTraining(p.Host, w)
	if err != nil {
		return EnergyBreakdown{}, err
	}
	return hostOnlyEnergy(p, b.Total()), nil
}

// BaggingTrainingEnergy models the full framework's training energy.
func BaggingTrainingEnergy(p Platform, w Workload, cfg bagging.Config) (EnergyBreakdown, error) {
	b, err := BaggingTraining(p, w, cfg, nil)
	if err != nil {
		return EnergyBreakdown{}, err
	}
	return splitEnergy(p, b.Encode, b.Update+b.ModelGen)
}

// CPUInferenceEnergy models test-set classification energy on a host-only
// platform.
func CPUInferenceEnergy(p Platform, w Workload) (EnergyBreakdown, error) {
	d, err := CPUInference(p.Host, w)
	if err != nil {
		return EnergyBreakdown{}, err
	}
	return hostOnlyEnergy(p, d), nil
}

// TPUInferenceEnergy models test-set classification energy on the
// accelerator platform. The whole invocation stream counts as accelerator
// time (the host only shuffles buffers).
func TPUInferenceEnergy(p Platform, w Workload) (EnergyBreakdown, error) {
	d, err := TPUInference(p, w)
	if err != nil {
		return EnergyBreakdown{}, err
	}
	return splitEnergy(p, d, 0)
}
