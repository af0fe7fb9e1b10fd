package serve

// The external tests (package serve_test) may import
// internal/fabric/faulttest, whose workers are built with New; these
// give them the package tests' campaign helpers.
var (
	CampaignBody   = campaignBody
	PostCampaign   = postCampaign
	GetMetricsBody = getMetricsBody
	GrepMetrics    = grepMetrics
)
