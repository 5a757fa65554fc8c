#include "io/serialize.hpp"

#include <charconv>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace rtsm::io {

namespace {

// ------------------------------------------------------------- writing

/// Run-length encodes a phase vector: 18^18 or 8^2,8,0.
std::string encode_rates(const std::vector<std::uint32_t>& values) {
  std::string out;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == values[i]) ++run;
    if (!out.empty()) out += ",";
    out += std::to_string(values[i]);
    if (run > 1) {
      out += '^';
      out += std::to_string(run);
    }
    i += run;
  }
  return out;
}

std::string quoted(const std::string& s) {
  // Names never contain quotes in this library; assert rather than escape.
  require(s.find('"') == std::string::npos,
          [&] { return "serialised names must not contain quotes: " + s; });
  return "\"" + s + "\"";
}

// ------------------------------------------------------------- parsing

/// Minimal tokenizer: whitespace-separated words, quoted strings, with
/// line tracking for error messages.
class Tokens {
 public:
  explicit Tokens(const std::string& text) {
    std::size_t line = 1;
    std::size_t i = 0;
    while (i < text.size()) {
      const char ch = text[i];
      if (ch == '\n') {
        ++line;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(ch)) != 0) {
        ++i;
        continue;
      }
      if (ch == '#') {  // comment to end of line
        while (i < text.size() && text[i] != '\n') ++i;
        continue;
      }
      if (ch == '"') {
        const std::size_t end = text.find('"', i + 1);
        require(end != std::string::npos, [&] {
          return "line " + std::to_string(line) + ": unterminated string";
        });
        tokens_.push_back({text.substr(i + 1, end - i - 1), line, true});
        i = end + 1;
        continue;
      }
      std::size_t end = i;
      while (end < text.size() &&
             std::isspace(static_cast<unsigned char>(text[end])) == 0 &&
             text[end] != '"' && text[end] != '#') {
        ++end;
      }
      tokens_.push_back({text.substr(i, end - i), line, false});
      i = end;
    }
  }

  [[nodiscard]] bool done() const { return pos_ >= tokens_.size(); }

  [[nodiscard]] const std::string& peek() const {
    require(!done(), "unexpected end of input");
    return tokens_[pos_].text;
  }

  std::string next() {
    require(!done(), "unexpected end of input");
    return tokens_[pos_++].text;
  }

  void expect(const std::string& word) {
    const std::string got = next();
    require(got == word, [&] {
      return "line " + std::to_string(line()) + ": expected '" + word +
             "', got '" + got + "'";
    });
  }

  std::uint64_t next_u64() {
    const std::string word = next();
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(word.data(), word.data() + word.size(), value);
    require(ec == std::errc{} && ptr == word.data() + word.size(), [&] {
      return "line " + std::to_string(line()) + ": expected integer, got '" +
             word + "'";
    });
    return value;
  }

  double next_double() {
    const std::string word = next();
    try {
      std::size_t used = 0;
      const double value = std::stod(word, &used);
      require(used == word.size(), "trailing garbage");
      return value;
    } catch (const std::exception&) {
      throw Error("line " + std::to_string(line()) +
                  ": expected number, got '" + word + "'");
    }
  }

  [[nodiscard]] std::size_t line() const {
    return tokens_[pos_ > 0 ? pos_ - 1 : 0].line;
  }

 private:
  struct Token {
    std::string text;
    std::size_t line;
    bool quoted;
  };
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

/// Parses "8^2,8,0" into a rate vector.
std::vector<std::uint32_t> decode_rates(const std::string& word,
                                        std::size_t line) {
  std::vector<std::uint32_t> out;
  std::size_t i = 0;
  auto parse_number = [&](const char* what) -> std::uint32_t {
    std::uint32_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(word.data() + i, word.data() + word.size(), value);
    require(ec == std::errc{} && ptr != word.data() + i, [&] {
      return "line " + std::to_string(line) + ": bad " + what + " in rates '" +
             word + "'";
    });
    i = static_cast<std::size_t>(ptr - word.data());
    return value;
  };
  while (i < word.size()) {
    const std::uint32_t value = parse_number("value");
    std::uint32_t repeat = 1;
    if (i < word.size() && word[i] == '^') {
      ++i;
      repeat = parse_number("repeat");
    }
    for (std::uint32_t r = 0; r < repeat; ++r) out.push_back(value);
    if (i < word.size()) {
      require(word[i] == ',', [&] {
        return "line " + std::to_string(line) + ": expected ',' in rates '" +
               word + "'";
      });
      ++i;
    }
  }
  require(!out.empty(), [&] {
    return "line " + std::to_string(line) + ": empty rate vector";
  });
  return out;
}

}  // namespace

std::string save_application(const kpn::Application& app) {
  std::ostringstream os;
  // Energies must survive the round trip bit-exactly.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "application " << quoted(app.name()) << "\n";
  os << "period_ns " << app.qos().symbol_period_ns << "\n";
  os << "frame_symbols " << app.qos().frame_symbols << "\n";
  if (app.qos().max_latency_ns) {
    os << "max_latency_ns " << *app.qos().max_latency_ns << "\n";
  }
  for (const ProcessId pid : app.process_ids()) {
    const kpn::Process& p = app.process(pid);
    if (p.is_fixture()) {
      os << "fixture " << quoted(p.name) << " pinned " << quoted(*p.pinned_tile)
         << "\n";
    } else {
      os << "process " << quoted(p.name) << "\n";
    }
  }
  for (const ChannelId cid : app.channel_ids()) {
    const kpn::Channel& c = app.channel(cid);
    os << "channel " << quoted(app.process(c.src).name) << " -> "
       << quoted(app.process(c.dst).name) << " tokens " << c.tokens_per_symbol
       << " token_bytes " << c.token_bytes << "\n";
  }
  for (const ProcessId pid : app.process_ids()) {
    const kpn::Process& p = app.process(pid);
    for (const kpn::Implementation& im : p.implementations) {
      os << "impl " << quoted(p.name) << " " << quoted(im.name) << " type "
         << quoted(im.tile_type) << " energy " << im.energy_nj_per_symbol
         << " memory " << im.memory_bytes << "\n";
      os << "  wcet " << encode_rates(im.wcet_cc) << "\n";
      for (const kpn::PortSpec& port : im.inputs) {
        os << "  input " << port.channel.value() << " rates "
           << encode_rates(port.rates) << "\n";
      }
      for (const kpn::PortSpec& port : im.outputs) {
        os << "  output " << port.channel.value() << " rates "
           << encode_rates(port.rates) << "\n";
      }
    }
  }
  os << "end\n";
  return os.str();
}

kpn::Application load_application(const std::string& text) {
  Tokens tokens(text);
  tokens.expect("application");
  const std::string name = tokens.next();

  kpn::QosConstraints qos;
  // QoS keys may appear before the first process.
  while (!tokens.done()) {
    const std::string& key = tokens.peek();
    if (key == "period_ns") {
      tokens.next();
      qos.symbol_period_ns = tokens.next_u64();
    } else if (key == "frame_symbols") {
      tokens.next();
      qos.frame_symbols = static_cast<std::uint32_t>(tokens.next_u64());
    } else if (key == "max_latency_ns") {
      tokens.next();
      qos.max_latency_ns = tokens.next_u64();
    } else {
      break;
    }
  }

  kpn::Application app(name, qos);
  while (!tokens.done()) {
    const std::string keyword = tokens.next();
    if (keyword == "end") {
      app.validate();
      return app;
    }
    if (keyword == "process") {
      app.add_process(tokens.next());
    } else if (keyword == "fixture") {
      const std::string pname = tokens.next();
      tokens.expect("pinned");
      app.add_fixture(pname, tokens.next());
    } else if (keyword == "channel") {
      const ProcessId src = app.process_by_name(tokens.next());
      tokens.expect("->");
      const ProcessId dst = app.process_by_name(tokens.next());
      tokens.expect("tokens");
      const auto count = static_cast<std::uint32_t>(tokens.next_u64());
      tokens.expect("token_bytes");
      const auto bytes = static_cast<std::uint32_t>(tokens.next_u64());
      app.connect(src, dst, count, bytes);
    } else if (keyword == "impl") {
      const ProcessId pid = app.process_by_name(tokens.next());
      kpn::Implementation im;
      im.name = tokens.next();
      tokens.expect("type");
      im.tile_type = tokens.next();
      tokens.expect("energy");
      im.energy_nj_per_symbol = tokens.next_double();
      tokens.expect("memory");
      im.memory_bytes = tokens.next_u64();
      tokens.expect("wcet");
      im.wcet_cc = decode_rates(tokens.next(), tokens.line());
      while (!tokens.done() &&
             (tokens.peek() == "input" || tokens.peek() == "output")) {
        const bool is_input = tokens.next() == "input";
        const auto channel = ChannelId{
            static_cast<ChannelId::value_type>(tokens.next_u64())};
        tokens.expect("rates");
        kpn::PortSpec port{channel, decode_rates(tokens.next(), tokens.line())};
        (is_input ? im.inputs : im.outputs).push_back(std::move(port));
      }
      app.add_implementation(pid, std::move(im));
    } else {
      throw Error("line " + std::to_string(tokens.line()) +
                  ": unknown keyword '" + keyword + "'");
    }
  }
  throw Error("application text is missing the closing 'end'");
}

std::string save_platform(const arch::Platform& platform) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "platform " << quoted(platform.name()) << " mesh "
     << platform.mesh_width() << " " << platform.mesh_height() << "\n";
  const arch::NocParams& noc = platform.noc();
  os << "noc capacity " << noc.link_capacity_tokens_per_s << " router_cc "
     << noc.router_latency_cc << " clock_hz " << noc.noc_clock_hz
     << " hop_buffer " << noc.hop_buffer_tokens << "\n";
  for (std::size_t t = 0; t < platform.tile_type_count(); ++t) {
    const arch::TileType& type =
        platform.tile_type(TileTypeId{static_cast<TileTypeId::value_type>(t)});
    os << "type " << quoted(type.name) << " clock_hz " << type.clock_hz << "\n";
  }
  for (const TileId tid : platform.tile_ids()) {
    const arch::Tile& tile = platform.tile(tid);
    os << "tile " << quoted(tile.name) << " type "
       << quoted(platform.tile_type(tile.type).name) << " at " << tile.x << " "
       << tile.y << " memory " << tile.memory_bytes << " slots "
       << tile.process_slots << "\n";
  }
  os << "end\n";
  return os.str();
}

arch::Platform load_platform(const std::string& text) {
  Tokens tokens(text);
  tokens.expect("platform");
  const std::string name = tokens.next();
  tokens.expect("mesh");
  const auto width = static_cast<std::uint32_t>(tokens.next_u64());
  const auto height = static_cast<std::uint32_t>(tokens.next_u64());

  arch::NocParams noc;
  if (!tokens.done() && tokens.peek() == "noc") {
    tokens.next();
    tokens.expect("capacity");
    noc.link_capacity_tokens_per_s = tokens.next_double();
    tokens.expect("router_cc");
    noc.router_latency_cc = static_cast<std::uint32_t>(tokens.next_u64());
    tokens.expect("clock_hz");
    noc.noc_clock_hz = tokens.next_u64();
    tokens.expect("hop_buffer");
    noc.hop_buffer_tokens = static_cast<std::uint32_t>(tokens.next_u64());
  }

  arch::Platform platform(name, width, height, noc);
  while (!tokens.done()) {
    const std::string keyword = tokens.next();
    if (keyword == "end") return platform;
    if (keyword == "type") {
      const std::string type_name = tokens.next();
      tokens.expect("clock_hz");
      platform.add_tile_type(type_name, tokens.next_u64());
    } else if (keyword == "tile") {
      const std::string tile_name = tokens.next();
      tokens.expect("type");
      const TileTypeId type = platform.type_by_name(tokens.next());
      tokens.expect("at");
      const auto x = static_cast<std::uint32_t>(tokens.next_u64());
      const auto y = static_cast<std::uint32_t>(tokens.next_u64());
      tokens.expect("memory");
      const std::uint64_t memory = tokens.next_u64();
      tokens.expect("slots");
      const auto slots = static_cast<std::uint32_t>(tokens.next_u64());
      platform.add_tile(tile_name, type, x, y, memory, slots);
    } else {
      throw Error("line " + std::to_string(tokens.line()) +
                  ": unknown keyword '" + keyword + "'");
    }
  }
  throw Error("platform text is missing the closing 'end'");
}

}  // namespace rtsm::io
