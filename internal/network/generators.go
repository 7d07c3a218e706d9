package network

import (
	"fmt"

	"rayfade/internal/geom"
	"rayfade/internal/rng"
)

// RandomPoisson draws a network whose receiver count follows a Poisson
// point process of the given intensity (expected receivers per unit area)
// over cfg.Area; cfg.N is ignored. Sender placement, distances, and powers
// follow cfg as in Random. Poisson processes are the canonical random
// deployment in the capacity-of-wireless-networks literature the paper
// builds on (Gupta–Kumar and the fading analyses of Liu–Haenggi); this
// generator lets experiments vary density without fixing the link count.
//
// The draw is conditioned on at least one link (a homogeneous PPP can be
// empty; an empty network is useless downstream), so the realized count is
// a zero-truncated Poisson.
func RandomPoisson(cfg Config, intensity float64, src *rng.Source) (*Network, error) {
	if intensity <= 0 {
		return nil, fmt.Errorf("network: intensity %g must be positive", intensity)
	}
	if !cfg.Area.Valid() {
		return nil, fmt.Errorf("network: invalid deployment area %+v", cfg.Area)
	}
	mean := intensity * cfg.Area.W() * cfg.Area.H()
	if mean > 1e7 {
		return nil, fmt.Errorf("network: expected %g links is unreasonably large", mean)
	}
	n := 0
	for tries := 0; n == 0; tries++ {
		n = src.Poisson(mean)
		if tries > 10000 {
			return nil, fmt.Errorf("network: intensity %g too low to realize a non-empty network", intensity)
		}
	}
	cfg.N = n
	return Random(cfg, src)
}

// ClusterConfig parameterizes a Thomas-process-like clustered deployment:
// cluster centers uniform over the area, receivers scattered around their
// center with a Gaussian spread, senders placed as in Random. Clustered
// deployments are the stress case for scheduling algorithms — interference
// is locally dense — and complement the uniform generators in robustness
// tests.
type ClusterConfig struct {
	Clusters int     // number of cluster centers
	PerChild int     // receivers per cluster
	Spread   float64 // Gaussian standard deviation around the center
	Base     Config  // distance range, α, ν, metric, power as in Random
}

// RandomClustered draws a clustered network. Receivers falling outside the
// area are clamped to it (keeping the configured density).
func RandomClustered(cc ClusterConfig, src *rng.Source) (*Network, error) {
	if cc.Clusters <= 0 || cc.PerChild <= 0 {
		return nil, fmt.Errorf("network: clusters=%d perChild=%d must be positive", cc.Clusters, cc.PerChild)
	}
	if cc.Spread <= 0 {
		return nil, fmt.Errorf("network: spread %g must be positive", cc.Spread)
	}
	cfg, err := cc.Base.withDefaults()
	if err != nil {
		return nil, err
	}
	net := &Network{
		Links:  make([]Link, 0, cc.Clusters*cc.PerChild),
		Metric: cfg.Metric,
		Alpha:  cfg.Alpha,
		Noise:  cfg.Noise,
	}
	for c := 0; c < cc.Clusters; c++ {
		center := geom.Point{
			X: src.UniformRange(cfg.Area.X0, cfg.Area.X1),
			Y: src.UniformRange(cfg.Area.Y0, cfg.Area.Y1),
		}
		for k := 0; k < cc.PerChild; k++ {
			recv := cfg.Area.Clamp(geom.Point{
				X: src.Normal(center.X, cc.Spread),
				Y: src.Normal(center.Y, cc.Spread),
			})
			net.Links = append(net.Links, cfg.placeSender(recv, src))
		}
	}
	return net, nil
}
