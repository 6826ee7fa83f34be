#include "trace.hpp"

#include <algorithm>

namespace perfbench {

std::string_view layer_name(Layer l) {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kSimLink: return "sim.link";
    case Layer::kQueue: return "queue";
    case Layer::kSender: return "flow.sender";
    case Layer::kReceiver: return "flow.receiver";
    case Layer::kCcaBbr: return "cca.bbr";
    case Layer::kCcaCubic: return "cca.cubic";
    case Layer::kCcaNimbus: return "cca.nimbus";
    case Layer::kCcaOther: return "cca.other";
    case Layer::kNimbusElasticity: return "nimbus.elasticity";
    case Layer::kMlabGenerate: return "mlab.generate";
    case Layer::kStoreWrite: return "store.write";
    case Layer::kStoreOpen: return "store.open";
    case Layer::kPipeline: return "pipeline";
    case Layer::kCalibration: return "trace.calibration";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"layers\": {";
  bool first = true;
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    const auto& t = totals_[i];
    if (t.calls == 0) continue;
    os << (first ? "" : ", ") << '"' << layer_name(static_cast<Layer>(i)) << "\": {\"calls\": "
       << t.calls << ", \"units\": " << t.units << ", \"total_ns\": " << t.total_ns
       << ", \"self_ns\": " << t.self_ns << '}';
    first = false;
  }
  os << "}, \"spans\": [";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const auto& s = kept_[i];
    os << (i == 0 ? "" : ", ") << "{\"name\": \"" << layer_name(s.layer)
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << '}';
  }
  os << "]}";
}

double calibrate_span_ns(int batches, int per_batch) {
  std::vector<double> per_span;
  for (int b = 0; b < batches; ++b) {
    Tracer t;
    const std::int64_t t0 = clock_ns();
    for (int i = 0; i < per_batch; ++i) {
      Span s{&t, Layer::kCalibration};
    }
    per_span.push_back(static_cast<double>(clock_ns() - t0) / per_batch);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

}  // namespace perfbench
