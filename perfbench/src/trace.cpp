#include "trace.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

namespace perfbench {

// ---- spans ---------------------------------------------------------------

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanLog::open(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

void write_json_string(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out << ' ';
    } else {
      out << ch;
    }
  }
  out << '"';
}

}  // namespace

void SpanLog::write_chrome_json(std::ostream& out) const {
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"perfbench\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"perfbench\","
           "\"name\":";
    write_json_string(out, span.name);
    out << ",\"ts\":" << span.start_us
        << ",\"dur\":" << (span.end_us - span.start_us)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "\n]}\n";
}

// ---- layer classification ------------------------------------------------

const char* layer_metric(Layer layer) {
  switch (layer) {
    case Layer::kSimKernel: return "sim.kernel_self_s";
    case Layer::kSimCalendar: return "sim.calendar_self_s";
    case Layer::kBoinc: return "boinc.self_s";
    case Layer::kGrid: return "grid.self_s";
    case Layer::kNet: return "net.self_s";
    case Layer::kCore: return "core.self_s";
    case Layer::kPortal: return "portal.self_s";
    case Layer::kRf: return "rf.self_s";
    case Layer::kPhyloKernels: return "phylo.kernels_self_s";
    case Layer::kPhylo: return "phylo.self_s";
    case Layer::kFault: return "fault.self_s";
    case Layer::kUtil: return "util.self_s";
    case Layer::kObs: return "obs.self_s";
    case Layer::kUnattributed: return "unattributed_s";
  }
  return "unattributed_s";
}

namespace {

/// The qualified function name of a demangled symbol: drops the argument
/// list and, for function templates, the leading return type.
std::string_view qualified_name(std::string_view demangled) {
  constexpr std::string_view kAnon = "(anonymous namespace)";
  int depth = 0;  // <...> and {...} nesting
  std::size_t last_space = std::string_view::npos;
  std::size_t i = 0;
  for (; i < demangled.size(); ++i) {
    const char ch = demangled[i];
    if (demangled.substr(i, kAnon.size()) == kAnon) {
      i += kAnon.size() - 1;
      continue;
    }
    if (ch == '<' || ch == '{') ++depth;
    if (ch == '>' || ch == '}') --depth;
    if (depth != 0) continue;
    if (ch == '(') break;
    if (ch == ' ') last_space = i;
  }
  std::string_view name = demangled.substr(0, i);
  if (last_space != std::string_view::npos && last_space < i) {
    name = name.substr(last_space + 1);
  }
  return name;
}

}  // namespace

Layer classify_symbol(const std::string& demangled) {
  const std::string_view name = qualified_name(demangled);
  constexpr std::string_view kRoot = "lattice::";
  if (name.substr(0, kRoot.size()) != kRoot) return Layer::kUnattributed;
  const std::string_view rest = name.substr(kRoot.size());
  const std::string_view module = rest.substr(0, rest.find("::"));
  const auto starts = [&](std::string_view prefix) {
    return rest.substr(0, prefix.size()) == prefix;
  };
  if (module == "sim") {
    return name.find("ShardedCalendar") != std::string_view::npos
               ? Layer::kSimCalendar
               : Layer::kSimKernel;
  }
  if (module == "phylo") {
    return starts("phylo::kernels::") ? Layer::kPhyloKernels : Layer::kPhylo;
  }
  if (module == "core") {
    return starts("core::Portal::") ? Layer::kPortal : Layer::kCore;
  }
  if (module == "boinc") return Layer::kBoinc;
  if (module == "grid") return Layer::kGrid;
  if (module == "net") return Layer::kNet;
  if (module == "rf") return Layer::kRf;
  if (module == "fault") return Layer::kFault;
  if (module == "util") return Layer::kUtil;
  if (module == "obs") return Layer::kObs;
  return Layer::kUnattributed;
}

// ---- symbol table --------------------------------------------------------

namespace {

/// Function symbols of the running executable (its ELF .symtab, which
/// holds internal-linkage functions too), relocated by the load bias.
class ExecutableSymbols {
 public:
  explicit ExecutableSymbols(const std::string& path) { load(path); }

  /// Layer of the function containing `pc`; kUnattributed outside the
  /// executable or outside liblattice.
  Layer layer_at(std::uintptr_t pc) {
    auto it = std::upper_bound(
        symbols_.begin(), symbols_.end(), pc,
        [](std::uintptr_t value, const Symbol& s) { return value < s.lo; });
    if (it == symbols_.begin()) return Layer::kUnattributed;
    --it;
    if (pc >= it->hi) return Layer::kUnattributed;
    if (!it->classified) {
      int status = 0;
      const char* raw = names_.data() + it->name_offset;
      std::unique_ptr<char, decltype(&std::free)> demangled(
          abi::__cxa_demangle(raw, nullptr, nullptr, &status), &std::free);
      it->layer = classify_symbol(status == 0 ? demangled.get() : raw);
      it->classified = true;
    }
    return it->layer;
  }

 private:
  struct Symbol {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    std::size_t name_offset = 0;
    Layer layer = Layer::kUnattributed;
    bool classified = false;
  };

  void load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    if (image.size() < sizeof(Elf64_Ehdr)) return;
    Elf64_Ehdr header;
    std::memcpy(&header, image.data(), sizeof(header));
    if (std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
        header.e_ident[EI_CLASS] != ELFCLASS64 ||
        header.e_shentsize != sizeof(Elf64_Shdr) ||
        header.e_shoff + header.e_shnum * sizeof(Elf64_Shdr) > image.size()) {
      return;
    }
    std::vector<Elf64_Shdr> sections(header.e_shnum);
    std::memcpy(sections.data(), image.data() + header.e_shoff,
                sections.size() * sizeof(Elf64_Shdr));
    const std::uintptr_t bias = load_bias();
    for (const Elf64_Shdr& section : sections) {
      if (section.sh_type != SHT_SYMTAB) continue;
      if (section.sh_link >= sections.size()) continue;
      const Elf64_Shdr& strings = sections[section.sh_link];
      if (section.sh_offset + section.sh_size > image.size() ||
          strings.sh_offset + strings.sh_size > image.size()) {
        continue;
      }
      names_.assign(image.data() + strings.sh_offset,
                    image.data() + strings.sh_offset + strings.sh_size);
      names_.push_back('\0');
      const std::size_t count = section.sh_size / sizeof(Elf64_Sym);
      for (std::size_t k = 0; k < count; ++k) {
        Elf64_Sym sym;
        std::memcpy(&sym, image.data() + section.sh_offset + k * sizeof(sym),
                    sizeof(sym));
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
            sym.st_value == 0 || sym.st_name >= names_.size()) {
          continue;
        }
        Symbol s;
        s.lo = bias + sym.st_value;
        s.hi = s.lo + sym.st_size;
        s.name_offset = sym.st_name;
        symbols_.push_back(s);
      }
    }
    std::sort(symbols_.begin(), symbols_.end(),
              [](const Symbol& a, const Symbol& b) { return a.lo < b.lo; });
  }

  static std::uintptr_t load_bias() {
    std::uintptr_t bias = 0;
    // The first object dl_iterate_phdr reports is the main program.
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
          *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
          return 1;
        },
        &bias);
    return bias;
  }

  std::vector<Symbol> symbols_;
  std::vector<char> names_;
};

// ---- sampler state (written by the signal handler) -----------------------

constexpr std::size_t kMaxSamples = 1 << 16;
constexpr int kDepth = 48;
void* g_frames[kMaxSamples][kDepth];
int g_depths[kMaxSamples];
std::atomic<std::uint32_t> g_next{0};
std::atomic<bool> g_instance{false};

void on_sigprof(int) {
  const int saved_errno = errno;
  const std::uint32_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) g_depths[slot] = backtrace(g_frames[slot], kDepth);
  errno = saved_errno;
}

void set_timer(int interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

}  // namespace

StackSampler::StackSampler(std::string executable)
    : executable_(std::move(executable)) {
  if (g_instance.exchange(true)) {
    throw std::logic_error("perfbench: one StackSampler at a time");
  }
  // The first backtrace() loads the unwinder, which is not safe inside a
  // signal handler; do it here.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action {};
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
}

StackSampler::~StackSampler() {
  stop();
  signal(SIGPROF, SIG_IGN);
  g_instance.store(false);
}

void StackSampler::start() {
  if (running_) return;
  running_ = true;
  cpu_at_start_ = process_cpu_seconds();
  set_timer(kIntervalUs);
}

void StackSampler::stop() {
  if (!running_) return;
  running_ = false;
  set_timer(0);
  cpu_seconds_ += process_cpu_seconds() - cpu_at_start_;
  // A signal raised just before the timer stopped may still be running its
  // handler on another thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

StackSampler::Ledger StackSampler::drain() {
  static ExecutableSymbols symbols(executable_);
  Ledger ledger;
  const std::size_t taken =
      std::min<std::size_t>(g_next.load(), kMaxSamples);
  std::unordered_map<std::uintptr_t, Layer> frame_layer;
  for (std::size_t s = 0; s < taken; ++s) {
    Layer layer = Layer::kUnattributed;
    for (int f = 0; f < g_depths[s]; ++f) {
      // Return addresses point past the call; step back into it.
      const auto pc = reinterpret_cast<std::uintptr_t>(g_frames[s][f]) - 1;
      auto [it, fresh] = frame_layer.try_emplace(pc, Layer::kUnattributed);
      if (fresh) it->second = symbols.layer_at(pc);
      if (it->second != Layer::kUnattributed) {
        layer = it->second;
        break;
      }
    }
    ledger.self_s[static_cast<std::size_t>(layer)] += 1.0;
    ++ledger.samples;
    if (layer != Layer::kUnattributed) ++ledger.attributed;
  }
  // The timer fires at most once per kernel tick however many threads
  // run, so samples give each layer's share and the process CPU clock
  // gives the total.
  for (double& self : ledger.self_s) {
    self *= ledger.samples > 0
                ? cpu_seconds_ / static_cast<double>(ledger.samples)
                : 0.0;
  }
  cpu_seconds_ = 0.0;
  g_next.store(0);
  return ledger;
}

}  // namespace perfbench
