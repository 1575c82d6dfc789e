#include "src/value/value.h"

#include <cassert>
#include <cmath>
#include <sstream>

namespace guardians {

std::string_view TypeTagName(TypeTag tag) {
  switch (tag) {
    case TypeTag::kNull:
      return "null";
    case TypeTag::kBool:
      return "bool";
    case TypeTag::kInt:
      return "int";
    case TypeTag::kReal:
      return "real";
    case TypeTag::kString:
      return "string";
    case TypeTag::kBytes:
      return "bytes";
    case TypeTag::kArray:
      return "array";
    case TypeTag::kRecord:
      return "record";
    case TypeTag::kPortName:
      return "port";
    case TypeTag::kToken:
      return "token";
    case TypeTag::kAbstract:
      return "abstract";
    case TypeTag::kAny:
      return "any";
  }
  return "unknown";
}

std::string PortName::ToString() const {
  std::string out = "port(n";
  out += std::to_string(node);
  out += "/g";
  out += std::to_string(guardian);
  out += '.';
  out += std::to_string(port_index);
  out += ')';
  return out;
}

std::string Token::ToString() const {
  std::ostringstream os;
  os << "token(g" << owner << "/sealed)";
  return os.str();
}

// --- Constructors ----------------------------------------------------------

Value Value::Bool(bool b) {
  Value v;
  v.tag_ = TypeTag::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.tag_ = TypeTag::kInt;
  v.int_ = i;
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.tag_ = TypeTag::kReal;
  v.real_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.tag_ = TypeTag::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Blob(Bytes b) {
  Value v;
  v.tag_ = TypeTag::kBytes;
  v.bytes_ = std::move(b);
  return v;
}

Value Value::Array(std::vector<Value> its) {
  Value v;
  v.tag_ = TypeTag::kArray;
  v.items_ = std::move(its);
  return v;
}

Value Value::Record(std::vector<Field> fs) {
  Value v;
  v.tag_ = TypeTag::kRecord;
  v.fields_ = std::move(fs);
  return v;
}

Value Value::OfPort(const PortName& p) {
  Value v;
  v.tag_ = TypeTag::kPortName;
  v.port_ = p;
  return v;
}

Value Value::OfToken(const Token& t) {
  Value v;
  v.tag_ = TypeTag::kToken;
  v.token_ = t;
  return v;
}

Value Value::Abstract(AbstractPtr obj) {
  assert(obj != nullptr);
  Value v;
  v.tag_ = TypeTag::kAbstract;
  v.abstract_ = std::move(obj);
  return v;
}

// --- Checked accessors -----------------------------------------------------

namespace {
Status TagMismatch(TypeTag want, TypeTag got) {
  return Status(Code::kTypeError,
                std::string("expected ") + std::string(TypeTagName(want)) +
                    ", got " + std::string(TypeTagName(got)));
}
}  // namespace

Result<bool> Value::AsBool() const {
  if (tag_ != TypeTag::kBool) {
    return TagMismatch(TypeTag::kBool, tag_);
  }
  return bool_;
}

Result<int64_t> Value::AsInt() const {
  if (tag_ != TypeTag::kInt) {
    return TagMismatch(TypeTag::kInt, tag_);
  }
  return int_;
}

Result<double> Value::AsReal() const {
  if (tag_ != TypeTag::kReal) {
    return TagMismatch(TypeTag::kReal, tag_);
  }
  return real_;
}

Result<std::string> Value::AsString() const {
  if (tag_ != TypeTag::kString) {
    return TagMismatch(TypeTag::kString, tag_);
  }
  return string_;
}

Result<Bytes> Value::AsBytes() const {
  if (tag_ != TypeTag::kBytes) {
    return TagMismatch(TypeTag::kBytes, tag_);
  }
  return bytes_;
}

Result<PortName> Value::AsPort() const {
  if (tag_ != TypeTag::kPortName) {
    return TagMismatch(TypeTag::kPortName, tag_);
  }
  return port_;
}

Result<Token> Value::AsToken() const {
  if (tag_ != TypeTag::kToken) {
    return TagMismatch(TypeTag::kToken, tag_);
  }
  return token_;
}

Result<AbstractPtr> Value::AsAbstract() const {
  if (tag_ != TypeTag::kAbstract) {
    return TagMismatch(TypeTag::kAbstract, tag_);
  }
  return abstract_;
}

// --- Unchecked accessors ---------------------------------------------------

bool Value::bool_value() const {
  assert(tag_ == TypeTag::kBool);
  return bool_;
}

int64_t Value::int_value() const {
  assert(tag_ == TypeTag::kInt);
  return int_;
}

double Value::real_value() const {
  assert(tag_ == TypeTag::kReal);
  return real_;
}

const std::string& Value::string_value() const {
  assert(tag_ == TypeTag::kString);
  return string_;
}

const Bytes& Value::bytes_value() const {
  assert(tag_ == TypeTag::kBytes);
  return bytes_;
}

const PortName& Value::port_value() const {
  assert(tag_ == TypeTag::kPortName);
  return port_;
}

const Token& Value::token_value() const {
  assert(tag_ == TypeTag::kToken);
  return token_;
}

const AbstractPtr& Value::abstract_value() const {
  assert(tag_ == TypeTag::kAbstract);
  return abstract_;
}

const std::vector<Value>& Value::items() const {
  assert(tag_ == TypeTag::kArray);
  return items_;
}

size_t Value::size() const {
  assert(tag_ == TypeTag::kArray);
  return items_.size();
}

const Value& Value::at(size_t i) const {
  assert(tag_ == TypeTag::kArray && i < items_.size());
  return items_[i];
}

const std::vector<Value::Field>& Value::fields() const {
  assert(tag_ == TypeTag::kRecord);
  return fields_;
}

Result<Value> Value::field(const std::string& name) const {
  if (tag_ != TypeTag::kRecord) {
    return TagMismatch(TypeTag::kRecord, tag_);
  }
  for (const auto& [k, v] : fields_) {
    if (k == name) {
      return v;
    }
  }
  return Status(Code::kNotFound, "no field '" + name + "'");
}

bool Value::HasField(const std::string& name) const {
  if (tag_ != TypeTag::kRecord) {
    return false;
  }
  for (const auto& [k, v] : fields_) {
    if (k == name) {
      return true;
    }
  }
  return false;
}

// --- Equality, size, rendering --------------------------------------------

bool Value::Equals(const Value& other) const {
  if (tag_ != other.tag_) {
    return false;
  }
  switch (tag_) {
    case TypeTag::kNull:
      return true;
    case TypeTag::kBool:
      return bool_ == other.bool_;
    case TypeTag::kInt:
      return int_ == other.int_;
    case TypeTag::kReal:
      return real_ == other.real_;
    case TypeTag::kString:
      return string_ == other.string_;
    case TypeTag::kBytes:
      return bytes_ == other.bytes_;
    case TypeTag::kArray: {
      if (items_.size() != other.items_.size()) {
        return false;
      }
      for (size_t i = 0; i < items_.size(); ++i) {
        if (!items_[i].Equals(other.items_[i])) {
          return false;
        }
      }
      return true;
    }
    case TypeTag::kRecord: {
      if (fields_.size() != other.fields_.size()) {
        return false;
      }
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (fields_[i].first != other.fields_[i].first ||
            !fields_[i].second.Equals(other.fields_[i].second)) {
          return false;
        }
      }
      return true;
    }
    case TypeTag::kPortName:
      return port_ == other.port_;
    case TypeTag::kToken:
      return token_ == other.token_;
    case TypeTag::kAbstract:
      return abstract_->AbstractEquals(*other.abstract_);
    case TypeTag::kAny:
      return false;
  }
  return false;
}

size_t Value::ApproxSize() const {
  switch (tag_) {
    case TypeTag::kNull:
      return 1;
    case TypeTag::kBool:
      return 1;
    case TypeTag::kInt:
      return 8;
    case TypeTag::kReal:
      return 8;
    case TypeTag::kString:
      return string_.size() + 4;
    case TypeTag::kBytes:
      return bytes_.size() + 4;
    case TypeTag::kArray: {
      size_t n = 4;
      for (const auto& v : items_) {
        n += v.ApproxSize();
      }
      return n;
    }
    case TypeTag::kRecord: {
      size_t n = 4;
      for (const auto& [k, v] : fields_) {
        n += k.size() + v.ApproxSize();
      }
      return n;
    }
    case TypeTag::kPortName:
      return 24;
    case TypeTag::kToken:
      return 24;
    case TypeTag::kAbstract:
      return 64;  // estimate; real size known only after encode
    case TypeTag::kAny:
      return 0;
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (tag_) {
    case TypeTag::kNull:
      os << "null";
      break;
    case TypeTag::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case TypeTag::kInt:
      os << int_;
      break;
    case TypeTag::kReal:
      os << real_;
      break;
    case TypeTag::kString:
      os << '"' << string_ << '"';
      break;
    case TypeTag::kBytes:
      os << "bytes[" << bytes_.size() << "]";
      break;
    case TypeTag::kArray: {
      os << '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        os << items_[i].ToString();
      }
      os << ']';
      break;
    }
    case TypeTag::kRecord: {
      os << '{';
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        os << fields_[i].first << ": " << fields_[i].second.ToString();
      }
      os << '}';
      break;
    }
    case TypeTag::kPortName:
      os << port_.ToString();
      break;
    case TypeTag::kToken:
      os << token_.ToString();
      break;
    case TypeTag::kAbstract:
      os << abstract_->TypeName() << "(" << abstract_->DebugString() << ")";
      break;
    case TypeTag::kAny:
      os << "any";
      break;
  }
  return os.str();
}

}  // namespace guardians
